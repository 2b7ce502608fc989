#include "cloud/s3/s3_server.h"

#include <sstream>

#include "cloud/s3/xml.h"
#include "common/codec/sha256.h"

namespace ginja {

namespace {

// Decodes %XX sequences in a path.
std::string UriDecode(std::string_view s) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = nibble(s[i + 1]), lo = nibble(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

}  // namespace

S3Server::S3Server(ObjectStorePtr backend, std::string bucket,
                   AwsCredentials credentials, std::size_t max_keys)
    : backend_(std::move(backend)),
      bucket_(std::move(bucket)),
      signer_(std::move(credentials)),
      max_keys_(max_keys) {}

HttpResponse S3Server::ErrorResponse(int status, const std::string& code,
                                     const std::string& message) {
  HttpResponse response;
  response.status = status;
  const std::string body = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
                           "<Error><Code>" + code + "</Code><Message>" +
                           XmlEscape(message) + "</Message></Error>";
  response.body = ToBytes(body);
  response.headers["content-type"] = "application/xml";
  return response;
}

Result<HttpResponse> S3Server::RoundTrip(const HttpRequest& request) {
  if (!signer_.Verify(request)) {
    rejected_.Add();
    return ErrorResponse(403, "SignatureDoesNotMatch",
                         "The request signature we calculated does not match");
  }

  // Path: "/<bucket>" (listing) or "/<bucket>/<key>".
  std::string_view path = request.path;
  if (!path.starts_with('/')) {
    return ErrorResponse(400, "InvalidURI", "path must start with /");
  }
  path.remove_prefix(1);
  const auto slash = path.find('/');
  const std::string_view bucket =
      slash == std::string_view::npos ? path : path.substr(0, slash);
  if (bucket != bucket_) {
    return ErrorResponse(404, "NoSuchBucket",
                         "The specified bucket does not exist");
  }

  if (slash == std::string_view::npos || slash + 1 == path.size()) {
    if (request.method == "GET" && request.query.count("list-type") > 0) {
      return HandleList(request);
    }
    return ErrorResponse(400, "InvalidRequest", "expected object key or list");
  }
  return HandleObject(request, UriDecode(path.substr(slash + 1)));
}

HttpResponse S3Server::HandleObject(const HttpRequest& request,
                                    const std::string& key) {
  // Ginja issues only single-request PUTs: multipart-upload verbs and
  // server-side copy share methods with the plain object verbs, so they
  // are told apart by query / header and refused.
  if (request.query.count("uploads") > 0 ||
      request.query.count("uploadId") > 0 ||
      request.headers.count("x-amz-copy-source") > 0) {
    return ErrorResponse(501, "NotImplemented",
                         "multipart upload and copy are not supported");
  }

  HttpResponse response;
  if (request.method == "PUT") {
    Status st = backend_->Put(key, View(request.body));
    if (!st.ok()) return ErrorResponse(500, "InternalError", st.ToString());
    response.status = 200;
    const auto etag = Sha256::Hash(View(request.body));
    response.headers["etag"] =
        "\"" + ToHex(ByteView(etag.data(), 16)) + "\"";
    return response;
  }
  if (request.method == "GET") {
    auto data = backend_->Get(key);
    if (!data.ok()) {
      if (data.status().code() == ErrorCode::kNotFound) {
        return ErrorResponse(404, "NoSuchKey",
                             "The specified key does not exist.");
      }
      return ErrorResponse(500, "InternalError", data.status().ToString());
    }
    response.status = 200;
    response.body = std::move(*data);
    return response;
  }
  if (request.method == "DELETE") {
    Status st = backend_->Delete(key);
    if (!st.ok()) return ErrorResponse(500, "InternalError", st.ToString());
    response.status = 204;
    return response;
  }
  return ErrorResponse(405, "MethodNotAllowed", request.method);
}

HttpResponse S3Server::HandleList(const HttpRequest& request) {
  std::string prefix;
  if (auto it = request.query.find("prefix"); it != request.query.end()) {
    prefix = it->second;
  }
  std::string start_after;
  if (auto it = request.query.find("start-after"); it != request.query.end()) {
    start_after = it->second;  // ListObjectsV2 cursor
  }
  if (auto it = request.query.find("continuation-token");
      it != request.query.end()) {
    // Our tokens are simply the last key served; a continuation resumes
    // from whichever cursor is further along.
    if (it->second > start_after) start_after = it->second;
  }

  auto all = backend_->List(prefix, start_after);
  if (!all.ok()) return ErrorResponse(500, "InternalError", all.status().ToString());

  std::ostringstream xml;
  xml << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<ListBucketResult><Name>" << XmlEscape(bucket_) << "</Name>"
      << "<Prefix>" << XmlEscape(prefix) << "</Prefix>";

  std::size_t served = 0;
  std::string last_key;
  bool truncated = false;
  for (const auto& meta : *all) {
    if (!start_after.empty() && meta.name <= start_after) continue;
    if (served == max_keys_) {
      truncated = true;
      break;
    }
    xml << "<Contents><Key>" << XmlEscape(meta.name) << "</Key><Size>"
        << meta.size << "</Size></Contents>";
    last_key = meta.name;
    ++served;
  }
  xml << "<KeyCount>" << served << "</KeyCount>"
      << "<IsTruncated>" << (truncated ? "true" : "false") << "</IsTruncated>";
  if (truncated) {
    xml << "<NextContinuationToken>" << XmlEscape(last_key)
        << "</NextContinuationToken>";
  }
  xml << "</ListBucketResult>";

  HttpResponse response;
  response.status = 200;
  response.body = ToBytes(xml.str());
  response.headers["content-type"] = "application/xml";
  return response;
}

}  // namespace ginja
