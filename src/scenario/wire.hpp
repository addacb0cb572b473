// Canonical byte serialization of grid results for the multi-process
// transport: a CellResult (or merged GridReport) travels between worker
// and coordinator as one self-validating frame
//
//   magic u64 | version u64 | payload_len u64 | payload | SHA-256(payload)
//
// with the payload encoded from the struct's fields() list
// (common/codec.hpp: big-endian words, doubles bit-cast, strings
// length-prefixed). Decoding verifies magic, version, exact length, and
// the trailing integrity digest, so a truncated, torn, or bit-flipped
// result file is *detected* — decode throws WireError — never merged.
// tests/wire_test.cpp proves every byte-boundary truncation and every
// single-byte flip of a frame is rejected.
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
#include <string>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "detection/replay_grid.hpp"
#include "scenario/runner.hpp"
#include "scenario/snapshot.hpp"

namespace onion::scenario::wire {

/// Compile-time face of the contract above: fingerprint paths
/// static_assert on this so the exclusion is checked where it is relied
/// upon, not just documented here.
inline constexpr bool kInformationalFieldsEnterFingerprints = false;

/// Frame type tags ("OBCELL\x00\x01" / "OBGRID\x00\x01" big-endian):
/// a grid-report frame can never decode as a cell result or vice versa.
inline constexpr std::uint64_t kCellResultMagic = 0x4f4243454c4c0001ull;
inline constexpr std::uint64_t kGridReportMagic = 0x4f42475249440001ull;
/// Replay-grid frames ("OBRCEL\x00\x01" / "OBRGRD\x00\x01"):
/// detection::ReplayGridJob ships one ReplayGridCell frame per
/// (campaign, seed) cell and gridworker persists the merged
/// ReplayGridReport — distinct magics keep a replay frame from ever
/// decoding as a campaign frame.
inline constexpr std::uint64_t kReplayCellMagic = 0x4f425243454c0001ull;
inline constexpr std::uint64_t kReplayReportMagic = 0x4f42524752440001ull;

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

// --- payload codecs (version-1 field order, no framing) --------------
// Each is codec::encode / codec::decode over the struct's fields() list,
// so the layouts are declared once, next to the structs.

Bytes serialize(const CellResult& cell);
CellResult deserialize_cell_result(BytesView payload);

Bytes serialize(const GridReport& report);
GridReport deserialize_grid_report(BytesView payload);

Bytes serialize(const detection::ReplayGridCell& cell);
detection::ReplayGridCell deserialize_replay_cell(BytesView payload);

Bytes serialize(const detection::ReplayGridReport& report);
detection::ReplayGridReport deserialize_replay_report(BytesView payload);

/// Inverse of scenario::serialize(MetricsSnapshot): consumes the exact
/// canonical encoding, including the conditional trailing
/// wave_takedowns block (present iff bytes remain). Round-trips every
/// snapshot bit-for-bit.
MetricsSnapshot deserialize_snapshot(BytesView encoded);

/// Inverse of detection::serialize(ReplayGridPoint): round-trips every
/// point bit-for-bit (doubles bit-cast), so a fingerprint recomputed
/// from decoded frames equals one computed from the original points.
detection::ReplayGridPoint deserialize_replay_point(BytesView encoded);

// --- framing ---------------------------------------------------------

/// Wraps `payload` in the length-prefixed, digest-trailed frame.
Bytes frame(std::uint64_t magic, BytesView payload);

/// Validates and strips the frame; throws WireError on any defect.
Bytes unframe(std::uint64_t magic, BytesView framed);

/// frame(kCellResultMagic, serialize(cell)) and its inverse.
Bytes encode_cell_result(const CellResult& cell);
CellResult decode_cell_result(BytesView framed);

/// frame(kGridReportMagic, serialize(report)) and its inverse.
Bytes encode_grid_report(const GridReport& report);
GridReport decode_grid_report(BytesView framed);

/// frame(kReplayCellMagic, serialize(cell)) and its inverse.
Bytes encode_replay_cell(const detection::ReplayGridCell& cell);
detection::ReplayGridCell decode_replay_cell(BytesView framed);

/// frame(kReplayReportMagic, serialize(report)) and its inverse.
Bytes encode_replay_report(const detection::ReplayGridReport& report);
detection::ReplayGridReport decode_replay_report(BytesView framed);

}  // namespace onion::scenario::wire
