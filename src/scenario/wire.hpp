// Self-checking frames: the canonical byte form in which grid results
// travel between worker and coordinator (a CellResult, a merged
// GridReport, and their replay-grid twins) and in which trace files
// (scenario/trace_io.hpp) store their header, chunks and footer:
//
//   magic u64 | version u64 | payload_len u64 | payload | SHA-256(payload)
//
// A framed struct declares its layout in fields() and its type tag as
// `static constexpr std::uint64_t kFrameMagic`, side by side;
// encode_frame / decode_frame<T> read both, so a struct's wire face is
// written down in one place and a frame of one kind never decodes as
// another. The payload is codec::encode of the struct
// (common/codec.hpp: big-endian words, doubles bit-cast, strings
// length-prefixed). Decoding verifies magic, version, exact length, and
// the trailing integrity digest, so a truncated, torn, or bit-flipped
// result file is *detected* — decode throws WireError — never merged.
// tests/wire_test.cpp proves every byte-boundary truncation and every
// single-byte flip of a frame is rejected, and that no frame kind
// decodes as another. The kinds, each magic an ASCII tag then 0x0001:
//
//   "OBCELL"  CellResult                   (scenario/runner.hpp)
//   "OBGRID"  GridReport                   (scenario/runner.hpp)
//   "OBRCEL"  detection::ReplayGridCell    (detection/replay_grid.hpp)
//   "OBRGRD"  detection::ReplayGridReport  (detection/replay_grid.hpp)
//   "OBTHDR"  trace_io::TraceHeader        (scenario/trace_io.hpp)
//   "OBTFTR"  trace_io::TraceFooter        (scenario/trace_io.hpp)
//   "OBTCHK"  a trace chunk: tagged records with no struct of their
//             own, so it keeps trace_io::kChunkMagic and frame()
//
// ## Informational fields — the one-place contract
//
// These fields are serialized (reports survive the trip intact) but are
// excluded from every fingerprint, because they describe *how* a run
// executed, not *what* it computed:
//
//   CellResult::wall_seconds
//   GridReport::wall_seconds
//   GridReport::threads_used
//   GridReport::retries
//   GridReport::resumed_cells
//   detection::ReplayGridCell::wall_seconds
//   detection::ReplayGridReport::wall_seconds
//   detection::ReplayGridReport::threads_used
//   detection::ReplayGridReport::retries
//   detection::ReplayGridReport::resumed_cells
//
// A cell fingerprint hashes only the snapshot stream, and the combined
// fingerprint hashes only the sorted completed-cell fingerprints
// (combine_cell_fingerprints in scenario/runner.cpp, which
// static_asserts on kInformationalFieldsEnterFingerprints below) — so
// timing jitter, retry history, and worker topology can never move a
// golden. Growing this list is a wire change like any other: each
// struct's fields() list (common/codec.hpp) is the one place its layout
// is written down.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/codec.hpp"

namespace onion::scenario::wire {

/// Compile-time face of the contract above: fingerprint paths
/// static_assert on this so the exclusion is checked where it is relied
/// upon, not just documented here.
inline constexpr bool kInformationalFieldsEnterFingerprints = false;

/// The wire schema version; decoders reject anything else so a frame
/// from a future layout fails loudly instead of misparsing.
inline constexpr std::uint64_t kWireVersion = 1;

/// Frame overhead: 3 u64 header words + the trailing SHA-256 digest.
inline constexpr std::size_t kFrameHeaderBytes = 24;
inline constexpr std::size_t kFrameDigestBytes = 32;

/// Thrown on any malformed frame: truncation at any byte, bad magic,
/// unknown version, length mismatch, or integrity-digest mismatch — and,
/// being codec::WireError, on any malformed payload. The message names
/// the failing check.
using codec::WireError;

/// Wraps `payload` in the length-prefixed, digest-trailed frame.
Bytes frame(std::uint64_t magic, BytesView payload);

/// Validates and strips the frame; throws WireError on any defect.
Bytes unframe(std::uint64_t magic, BytesView framed);

/// frame(T::kFrameMagic, codec::encode(value)): the one encoder of every
/// struct that declares a frame magic next to its fields().
template <typename T>
Bytes encode_frame(const T& value) {
  return frame(T::kFrameMagic, codec::encode(value));
}

/// The inverse of encode_frame<T>; throws WireError on a frame of any
/// other kind and on any defect of the frame or its payload.
template <typename T>
T decode_frame(BytesView framed) {
  return codec::decode<T>(unframe(T::kFrameMagic, framed));
}

}  // namespace onion::scenario::wire
