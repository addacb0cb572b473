// Session-length models for membership churn. The pooled Poisson leave
// process the campaign engine started with (a global leave rate picking
// a uniform victim) gives every bot the same memoryless exit hazard;
// measured P2P populations are heavy-tailed instead — most sessions are
// short, a few last for days (the churn literature the paper's Section V
// sweeps abstract away). A SessionSpec describes the per-bot session
// length distribution; sample_session draws one length from the
// campaign's deterministic RNG stream, so equal spec + equal seed still
// replays byte-identically.
#pragma once

#include <cstdint>
#include <limits>

#include "common/clock.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"

namespace onion::scenario {

/// Which distribution a bot's session length follows. All three are
/// parameterized by their *mean*, so swapping the model moves tail mass
/// without changing the average population turnover.
enum class SessionModel : std::uint8_t {
  Exponential,  // memoryless (the pooled process, seen per bot)
  Pareto,       // power-law tail: P(X > x) = (x_m / x)^alpha
  LogNormal,    // log-scale Gaussian: heavy but all moments finite
};

/// Session-length distribution, in simulated hours.
struct SessionSpec {
  SessionModel model = SessionModel::Exponential;
  /// Target mean session length. <= 0 is well-defined: every sample is
  /// 0 before clamping (an instant-leave population).
  double mean_hours = 1.0;
  /// Pareto tail index; must be > 1 so the mean exists. Smaller alpha =
  /// heavier tail (alpha in (1, 2] has infinite variance).
  double pareto_alpha = 1.5;
  /// LogNormal log-scale standard deviation; 0 degenerates to a
  /// constant at the mean.
  double lognormal_sigma = 1.0;
  /// Clamp band applied after sampling. min == max pins every session
  /// to that constant (the degenerate but well-defined corner).
  double min_hours = 0.0;
  double max_hours = std::numeric_limits<double>::infinity();

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("SessionSpec",
             codec::enum_u64<SessionModel::LogNormal>("model", s.model),
             codec::f64("mean_hours", s.mean_hours),
             codec::f64("pareto_alpha", s.pareto_alpha),
             codec::f64("lognormal_sigma", s.lognormal_sigma),
             codec::f64("min_hours", s.min_hours),
             codec::f64("max_hours", s.max_hours));
  }
};

/// One session length in hours. Draws exactly one uniform for
/// Exponential/Pareto and two for LogNormal, always — clamping never
/// changes the draw count, so the RNG stream position is a function of
/// the sample index alone.
double sample_session_hours(const SessionSpec& spec, Rng& rng);

/// As above, converted to simulated time and clamped to >= 1 ms (a
/// 0-length session would schedule a leave at the join instant).
SimDuration sample_session(const SessionSpec& spec, Rng& rng);

}  // namespace onion::scenario
