// The run report's content_checksum is exact: a collective write that loses
// one 4 KiB piece in the middle of a coll_perf file changes it. The sampled
// fingerprint it replaced hashed one byte in every 64 KiB of the quick
// point's 4 GiB file, and gave the intact and the damaged run one value.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/dataview.h"
#include "common/extent.h"
#include "common/units.h"
#include "mpi/datatype.h"
#include "support/quick_point.h"
#include "workloads/experiment.h"
#include "workloads/workload.h"

namespace e10::workloads {
namespace {

using namespace e10::units;

/// coll_perf's quick-point write with the file bytes `drop` left out: the
/// rank whose 1 MiB block holds them removes them from its view, and its
/// data stream skips their bytes, so every other byte lands as in the
/// intact run. An empty `drop` is the intact run.
class DroppedPieceCollPerf final : public Workload {
 public:
  explicit DroppedPieceCollPerf(Extent drop)
      : params_(collperf_paper_params(64)), drop_(drop) {}

  std::string name() const override { return "coll_perf"; }

  Offset bytes_per_rank(const mpi::Comm& comm) const override {
    return CollPerfWorkload(params_).bytes_per_rank(comm);
  }

  Status write_file(mpiio::File& file, const mpi::Comm& comm,
                    int file_index) const override {
    const auto& g = params_.grid;
    const auto& b = params_.block;
    const Offset r = comm.rank();
    const auto type = mpi::FlatType::subarray(
        {g[0] * b[0], g[1] * b[1], g[2] * b[2]}, {b[0], b[1], b[2]},
        {r / (g[1] * g[2]) * b[0], (r / g[2]) % g[1] * b[1],
         r % g[2] * b[2]},
        params_.elem_bytes);
    std::vector<Extent> blocks;
    Offset skip_at = -1;  // data-stream offset of the dropped bytes
    Offset stream = 0;
    for (const Extent& block : type.blocks()) {
      const Offset cut = drop_.offset - block.offset;
      if (!drop_.empty() && cut > 0 && cut + drop_.length < block.length) {
        blocks.push_back(Extent{block.offset, cut});
        blocks.push_back(Extent{drop_.end(), block.end() - drop_.end()});
        skip_at = stream + cut;
      } else {
        blocks.push_back(block);
      }
      stream += block.length;
    }
    const DataView whole = DataView::synthetic(
        1000 * static_cast<std::uint64_t>(file_index + 1) +
            static_cast<std::uint64_t>(r),
        0, stream);
    const DataView data =
        skip_at < 0
            ? whole
            : DataView::concat(
                  {whole.slice(0, skip_at),
                   whole.slice(skip_at + drop_.length,
                               stream - skip_at - drop_.length)});
    if (const Status s = file.set_view(
            0, mpi::FlatType::indexed(std::move(blocks), type.extent()));
        !s.is_ok()) {
      return s;
    }
    return file.write_all(data);
  }

 private:
  CollPerfWorkload::Params params_;
  Extent drop_;
};

TEST(ContentChecksum, CatchesOnePieceDroppedMidFile) {
  // 4 KiB at 2 GiB + 16 KiB: mid-file, inside one rank's block, and
  // between two of the positions 64 KiB apart that the sampled fingerprint
  // read.
  const ExperimentSpec spec =
      quick_collperf_spec(4, 16 * MiB, CacheCase::disabled, 1);
  const auto run = [&spec](Extent drop) {
    return run_experiment(spec, [drop](const TestbedParams&) {
      return std::make_unique<DroppedPieceCollPerf>(drop);
    });
  };
  const ExperimentResult intact = run(Extent{});
  const ExperimentResult dropped = run(Extent{2 * GiB + 16 * KiB, 4 * KiB});
  EXPECT_NE(dropped.content_checksum, intact.content_checksum);
}

}  // namespace
}  // namespace e10::workloads
