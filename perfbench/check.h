// Output checker: verifies the program's placements against the
// generator's record and against sums the benchmark computes itself.
//
//  - every admitted module holds at least the demand the generator wrote
//    (taken from the record, not from the parsed spec), data modules on
//    `replicas` distinct devices;
//  - the compute devices of tenancy=single modules carry no other tenant;
//  - region pins and avoids hold, each device's region derived from the
//    datacenter geometry (devices are laid out rack by rack);
//  - each pool's allocated total equals the sum of the live deployments'
//    slices;
//  - after the final drain, pools, live environments, env-store refs and
//    attestation identities all read zero.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <string>
#include <utility>
#include <vector>

#include "perfbench/gen.h"
#include "src/core/udc_cloud.h"

namespace perfbench {

struct Geometry {
  int racks = 0;
  int cells = 0;
  int regions = 0;
  int devices_per_rack = 0;

  int RackOfDevice(udc::DeviceId device) const;
  // -1 when the datacenter has no regions.
  int RegionOfRack(int rack) const;
};

// A live deployment and the record of the app it realizes.
using LiveDeployment = std::pair<udc::Deployment*, const GeneratedApp*>;

class Checker {
 public:
  explicit Checker(Geometry geometry) : geometry_(geometry) {}

  void CheckAdmitted(udc::UdcCloud& cloud, udc::Deployment& deployment,
                     const GeneratedApp& app);
  void CheckOccupancy(udc::UdcCloud& cloud,
                      const std::vector<LiveDeployment>& live);
  void CheckDrained(udc::UdcCloud& cloud);
  void Fail(const std::string& message);

  bool ok() const { return failures_ == 0; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  Geometry geometry_;
  long long failures_ = 0;
  std::vector<std::string> errors_;  // the first few, for the report
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
