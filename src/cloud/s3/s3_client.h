// S3 REST client: an ObjectStore that talks the real wire protocol —
// SigV4-signed HTTP requests, ListObjectsV2 XML with continuation tokens —
// over any HttpTransport. Point it at the in-process S3Server for offline
// runs, or at a socket transport for a real endpoint.
#pragma once

#include <functional>
#include <memory>

#include "cloud/object_store.h"
#include "cloud/s3/http.h"
#include "cloud/s3/sigv4.h"

namespace ginja {

class S3Client : public ObjectStore {
 public:
  // `amz_date_fn` supplies the x-amz-date header; defaults to a fixed May
  // 2017 date (deterministic tests; the paper's price-book month).
  S3Client(std::shared_ptr<HttpTransport> transport, std::string bucket,
           AwsCredentials credentials = {},
           std::function<std::string()> amz_date_fn = nullptr);

  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

 private:
  Result<HttpResponse> Send(HttpRequest request);

  std::shared_ptr<HttpTransport> transport_;
  std::string bucket_;
  SigV4Signer signer_;
  std::function<std::string()> amz_date_fn_;
};

}  // namespace ginja
