// The three workloads: their seeded inputs, the request sequence each
// client loop walks, the registry each server starts from, and the checks
// that every generated input carries the verdict it is expected to get.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "perfbench/src/tcgen.h"

namespace perfbench {

struct Doc {
  std::string schema;  ///< registry name of the DTD it is validated against
  std::string xml;
  bool valid = true;  ///< expected verdict
};

/// One request of the sequence, pre-encoded, with what its answer is
/// checked against.
struct PlannedRequest {
  pebbletc::serve::Opcode op = pebbletc::serve::Opcode::kPing;
  std::string payload;
  std::string schema;     ///< validate / batch / load: the DTD's name
  std::vector<int> docs;  ///< validate / batch: indices into Inputs::docs
  int instance = -1;      ///< typecheck: index into Inputs::instances
  uint64_t doc_bytes = 0;
};

struct Inputs {
  std::string workload;
  int clients = 1;
  /// The loop stops at the first cycle boundary (`prefix` + a multiple of
  /// `cycle` requests) after the measuring time is up, so every run covers
  /// whole cycles of the mix.
  size_t prefix = 0;
  size_t cycle = 1;
  /// typecheck-cold: every request is sent once (the sequence is not
  /// repeated) and the op cache is emptied before each one.
  bool cold = false;
  /// Document size band every generated document must fall in.
  size_t min_doc_bytes = 0, max_doc_bytes = 0;

  std::vector<std::pair<std::string, std::string>> dtds;  ///< name, text
  std::vector<Doc> docs;
  std::vector<TcInstance> instances;
  std::vector<ParsedInstance> parsed;  ///< parallel to `instances`
  std::vector<PlannedRequest> warmup;    ///< sent during set-up
  std::vector<PlannedRequest> sequence;  ///< the timed loop's requests
  /// Requests the service is known not to decide yet (Example 4.3
  /// Q2-good's kInvalidArgument). Each is sent once after the measured
  /// loops; a wrong verdict still fails the run, and the report counts
  /// the known limitations it meets.
  std::vector<PlannedRequest> probes;
};

/// Builds a workload's inputs from `seed`.
pebbletc::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed);

/// Generator self-test: every document's size is in its band and its
/// expected verdict agrees with the independent DTD validator; every
/// typecheck instance parses.
pebbletc::Status SelfTest(const Inputs& inputs);

/// Installs the workload's artifacts into a fresh server's registry.
pebbletc::Status LoadRegistry(const Inputs& inputs,
                              pebbletc::serve::ServerCore* server);

/// Registry names of a typecheck instance's three artifacts.
std::string XsltName(int instance);
std::string InDtdName(int instance);
std::string OutDtdName(int instance);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
