#pragma once

#include <string>
#include <vector>

#include "netgym/trace.hpp"

namespace traces {

/// The four recorded trace sets of Table 2. The originals (FCC broadband,
/// Norway 3G, Pantheon Cellular/Ethernet) are not redistributable, so this
/// module synthesizes stand-in corpora with per-set statistical signatures
/// (documented in DESIGN.md S4): the paper uses the sets only as bandwidth
/// processes with distribution shift between them, which these generators
/// reproduce. Traces are generated deterministically from (set, split,
/// index) so every experiment sees the same corpus.
enum class TraceSet { kFcc, kNorway, kCellular, kEthernet };

struct TraceSetInfo {
  std::string name;
  std::string task;       ///< FCC/Norway drive "abr"; Cellular/Ethernet "cc"
  int train_count = 0;    ///< corpus sizes follow the proportions of Table 2
  int test_count = 0;
  double duration_s = 0;
};

const TraceSetInfo& info(TraceSet set);

/// All four sets, in declaration order.
std::vector<TraceSet> all_sets();

/// Generate the `index`-th trace of a set's train or test split. Index must
/// be within the split's count. Deterministic.
netgym::Trace make_trace(TraceSet set, bool test_split, int index);

/// Generate the whole split.
std::vector<netgym::Trace> make_corpus(TraceSet set, bool test_split);

}  // namespace traces
