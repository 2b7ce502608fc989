// GinjaFleet — N protected databases on one host's shared resources.
//
// The facade that turns the per-instance Ginja into a multi-tenant DR
// service: one FleetRuntime (uploader pool + DRR scheduler, one
// TransferManager, one CodecPool, one metrics registry) serves every
// tenant, while each tenant keeps its own personality — B/S/TB knobs,
// CloudView, pending window — and a private key namespace ("t/<id>/")
// inside the shared bucket. AddTenant does the wiring: it wraps the
// runtime's base store in the tenant's TenantNamespace (optionally
// stacking a per-tenant decorator such as a MeteredStore), injects the
// runtime, tenant id, and shared observability into the config, and
// constructs the Ginja. The caller then Boot()s or Reboot()s it as usual.
//
// Per-tenant S/TS blocking semantics are untouched by the sharing: each
// tenant's commit pipeline counts its own unconfirmed writes, and the DRR
// scheduler guarantees a hot tenant cannot starve another tenant's upload
// path (see UploadScheduler).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "common/result.h"
#include "db/layout.h"
#include "fs/vfs.h"
#include "ginja/fleet_runtime.h"
#include "ginja/ginja.h"

namespace ginja {

class GinjaFleet {
 public:
  struct TenantSpec {
    // Non-empty, unique within the fleet; becomes the key prefix "t/<id>/"
    // and the `tenant` metric label.
    std::string id;
    VfsPtr local_vfs;
    DbLayout layout;
    // The tenant's personality (B/S/TB, envelope, dedup, ...). The
    // fleet overwrites `runtime`, `tenant_id`, and (when unset) `obs`.
    GinjaConfig config;
    // Optional per-tenant store stack on top of the namespaced view —
    // e.g. metering or fault injection scoped to this tenant. Receives
    // the TenantNamespace wrapper, returns the store the tenant uses.
    std::function<ObjectStorePtr(ObjectStorePtr)> store_decorator;
  };

  explicit GinjaFleet(std::shared_ptr<FleetRuntime> runtime);
  ~GinjaFleet();

  GinjaFleet(const GinjaFleet&) = delete;
  GinjaFleet& operator=(const GinjaFleet&) = delete;

  // Constructs (but does not Boot) the tenant. The returned pointer stays
  // valid until the tenant is removed or the fleet is destroyed.
  Result<Ginja*> AddTenant(TenantSpec spec);

  // Null when the id is unknown.
  Ginja* Find(const std::string& id);
  // The store view AddTenant built for the tenant (namespace + decorator);
  // null when the id is unknown.
  ObjectStorePtr TenantStore(const std::string& id);
  std::vector<std::string> TenantIds() const;
  std::size_t size() const { return tenants_.size(); }

  // Stops (kill=false) or kills (kill=true) the tenant and destroys it.
  // False when the id is unknown.
  bool RemoveTenant(const std::string& id, bool kill = false);

  // Fleet-wide lifecycle, in tenant insertion order.
  void StopAll();
  void KillAll();
  void DrainAll();

  FleetRuntime& runtime() { return *runtime_; }
  const std::shared_ptr<FleetRuntime>& runtime_ptr() const { return runtime_; }

 private:
  struct Tenant {
    std::string id;
    ObjectStorePtr store;  // the namespaced (and decorated) view
    std::unique_ptr<Ginja> ginja;
  };

  std::shared_ptr<FleetRuntime> runtime_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  // insertion order
};

}  // namespace ginja
