// In-process S3 REST server: implements the request side of the wire
// protocol (SigV4 verification, PUT/GET/DELETE object, ListObjectsV2 with
// pagination) over any ObjectStore backend. Paired with S3Client it gives
// an offline, end-to-end-authentic S3 path; misuse (bad signature, wrong
// bucket, unknown key) yields the same status codes and XML error bodies
// real S3 sends. Multipart upload and server-side copy, which Ginja never
// issues, are answered 501 NotImplemented.
#pragma once

#include <memory>

#include "cloud/object_store.h"
#include "cloud/s3/http.h"
#include "cloud/s3/sigv4.h"
#include "common/stats.h"

namespace ginja {

class S3Server : public HttpTransport {
 public:
  S3Server(ObjectStorePtr backend, std::string bucket,
           AwsCredentials credentials = {}, std::size_t max_keys = 1000);

  Result<HttpResponse> RoundTrip(const HttpRequest& request) override;

  std::uint64_t rejected_requests() const { return rejected_.Get(); }

 private:
  HttpResponse HandleList(const HttpRequest& request);
  HttpResponse HandleObject(const HttpRequest& request, const std::string& key);
  static HttpResponse ErrorResponse(int status, const std::string& code,
                                    const std::string& message);

  ObjectStorePtr backend_;
  std::string bucket_;
  SigV4Signer signer_;
  std::size_t max_keys_;
  Counter rejected_;
};

}  // namespace ginja
