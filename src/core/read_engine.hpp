#pragma once

#include <span>

#include "core/types.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"

namespace tpio::coll {

/// Collective read of this rank's `view` into `out` (extent bytes in
/// order), together with every other rank. Collective call.
///
/// The mirror of collective_write, run by the same coll::Engine in the
/// read direction: per cycle the aggregators read their file-domain slice
/// (read-ahead under OverlapMode::Write) and scatter each rank's pieces
/// back over two-sided messages. The read direction has no one-sided
/// transfers and no hierarchy: Options::transfer other than TwoSided,
/// Options::hierarchical and Options::local_aggregators > 1 are rejected
/// with a tpio::Error before the first collective. OverlapMode::Auto runs
/// the data-flow scheduler (WriteComm2).
Result collective_read(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                       std::span<std::byte> out, const Options& opt);

}  // namespace tpio::coll
