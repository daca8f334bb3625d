// Regenerates the committed fleet regression fixtures:
//
//   make_fleet_fixtures <tests/data dir>
//
// writes worst_fixture_abr.jsonl -- the worst-4 flight recordings of the
// deterministic 96-session ABR fixture fleet, and fleet_digest_mix_v1.txt,
// the digests of a small abr + cc + lb fleet (fleet::write_regression_fixture).
// fleet_test re-runs both and byte-compares against the committed files, so
// they pin sampling -> lockstep replay -> metrics -> flight capture for every
// task. Only rerun this on a *deliberate* change to fleet sampling, the
// environments' dynamics, or the flight JSONL format, and review the diff of
// the regenerated files like any other behavior change.

#include <cstdio>

#include "fleet/fleet.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fleet_fixtures <output-dir>\n");
    return 2;
  }
  const std::string path = fleet::write_regression_fixture(argv[1]);
  std::printf("wrote %s and fleet_digest_mix_v1.txt\n", path.c_str());
  return 0;
}
