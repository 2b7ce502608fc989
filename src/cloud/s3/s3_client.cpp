#include "cloud/s3/s3_client.h"

#include <charconv>

#include "cloud/s3/xml.h"

namespace ginja {

S3Client::S3Client(std::shared_ptr<HttpTransport> transport, std::string bucket,
                   AwsCredentials credentials,
                   std::function<std::string()> amz_date_fn)
    : transport_(std::move(transport)),
      bucket_(std::move(bucket)),
      signer_(std::move(credentials)),
      amz_date_fn_(std::move(amz_date_fn)) {
  if (!amz_date_fn_) {
    amz_date_fn_ = [] { return std::string("20170515T000000Z"); };
  }
}

Result<HttpResponse> S3Client::Send(HttpRequest request) {
  signer_.Sign(request, amz_date_fn_());
  return transport_->RoundTrip(request);
}

Status S3Client::Put(std::string_view name, ByteView data) {
  HttpRequest request;
  request.method = "PUT";
  request.path = "/" + bucket_ + "/" + UriEncode(name, /*encode_slash=*/false);
  request.body.assign(data.begin(), data.end());
  auto response = Send(std::move(request));
  if (!response.ok()) return response.status();
  if (response->status != 200) {
    return Status::Unavailable("S3 PUT HTTP " + std::to_string(response->status));
  }
  return Status::Ok();
}

Result<Bytes> S3Client::Get(std::string_view name) {
  HttpRequest request;
  request.method = "GET";
  request.path = "/" + bucket_ + "/" + UriEncode(name, /*encode_slash=*/false);
  auto response = Send(std::move(request));
  if (!response.ok()) return response.status();
  if (response->status == 404) return Status::NotFound(std::string(name));
  if (response->status != 200) {
    return Status::Unavailable("S3 GET HTTP " + std::to_string(response->status));
  }
  return response->body;
}

Status S3Client::Delete(std::string_view name) {
  HttpRequest request;
  request.method = "DELETE";
  request.path = "/" + bucket_ + "/" + UriEncode(name, /*encode_slash=*/false);
  auto response = Send(std::move(request));
  if (!response.ok()) return response.status();
  // S3: deleting a missing key still answers 204.
  if (response->status != 204 && response->status != 200) {
    return Status::Unavailable("S3 DELETE HTTP " +
                               std::to_string(response->status));
  }
  return Status::Ok();
}

Result<std::vector<ObjectMeta>> S3Client::List(std::string_view prefix) {
  return List(prefix, {});
}

Result<std::vector<ObjectMeta>> S3Client::List(std::string_view prefix,
                                               std::string_view start_after) {
  std::vector<ObjectMeta> out;
  std::string continuation;
  while (true) {
    HttpRequest request;
    request.method = "GET";
    request.path = "/" + bucket_;
    request.query["list-type"] = "2";
    if (!prefix.empty()) request.query["prefix"] = std::string(prefix);
    // ListObjectsV2 start-after: the server skips keys <= the cursor. Keys
    // are filtered again below in case a server ignores the parameter.
    if (!start_after.empty()) request.query["start-after"] = std::string(start_after);
    if (!continuation.empty()) request.query["continuation-token"] = continuation;
    auto response = Send(std::move(request));
    if (!response.ok()) return response.status();
    if (response->status != 200) {
      return Status::Unavailable("S3 LIST HTTP " +
                                 std::to_string(response->status));
    }
    const std::string doc(response->body.begin(), response->body.end());
    for (const auto& fragment : XmlExtractAll(doc, "Contents")) {
      ObjectMeta meta;
      auto key = XmlExtract(fragment, "Key");
      auto size = XmlExtract(fragment, "Size");
      if (!key) return Status::Corruption("ListBucketResult without Key");
      meta.name = *key;
      if (!start_after.empty() && meta.name <= start_after) continue;
      if (size) {
        std::from_chars(size->data(), size->data() + size->size(), meta.size);
      }
      out.push_back(std::move(meta));
    }
    const auto truncated = XmlExtract(doc, "IsTruncated");
    if (!truncated || *truncated != "true") break;
    auto token = XmlExtract(doc, "NextContinuationToken");
    if (!token) return Status::Corruption("truncated listing without token");
    continuation = *token;
  }
  return out;
}

}  // namespace ginja
