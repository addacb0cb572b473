// The OnionBot proper (paper Section IV): bots living as Tor hidden
// services, a botmaster that can reach every bot without revealing
// itself, and the harness that wires a whole botnet over the simulated
// privacy infrastructure.
//
// Life cycle (paper §IV-A): Infection (abstract seeding here) -> Rally
// (peer bootstrap) -> Waiting (peer maintenance, heartbeats, rotation) ->
// Execution (authenticated commands). Every identity is a .onion
// address; no bot — not even the C&C — ever learns another bot's host.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "crypto/kdf.hpp"
#include "graph/graph.hpp"
#include "sim/simulator.hpp"
#include "tor/tor_network.hpp"

namespace onion::core {

class Botnet;

/// Per-bot tuning knobs.
struct BotConfig {
  /// Degree band for the DDSR maintenance.
  std::size_t dmin = 4;
  std::size_t dmax = 8;

  /// .onion address lifetime; each period the bot derives a fresh
  /// service key from (PK_CC, K_B, period) and re-publishes (paper
  /// "Forgetting" / §IV-D).
  SimDuration rotation_period = 6 * kHour;

  /// Liveness ping cadence; a peer failing kPingFailuresForDead
  /// consecutive pings is declared dead, triggering DDSR repair.
  SimDuration heartbeat_interval = 90 * kSecond;

  /// Periodic NoN (neighbor-list) exchange cadence.
  SimDuration non_share_interval = 4 * kMinute;

  /// Commands older than this are rejected (anti-replay window).
  SimDuration command_max_age = 1 * kHour;

  /// §VII-A "probing" defense: heartbeats carry a keyed challenge
  /// instead of a plain ping. A peer that answers wrongly is dropped on
  /// the spot (a defender clone cannot answer without operating the
  /// botnet's crypto). Off by default — the *basic* OnionBot, which is
  /// what SOAP defeats.
  bool probe_peers = false;
};

/// Consecutive ping failures before a peer is declared dead.
constexpr int kPingFailuresForDead = 2;

/// What a bot knows about one peer.
struct PeerInfo {
  std::uint16_t declared_degree = 0;
  SimTime last_seen = 0;
  /// The peer's own neighbor list (NoN knowledge; repair material).
  std::vector<tor::OnionAddress> neighbors;
  int failed_pings = 0;
};

/// A command a bot actually ran, for test/bench introspection.
struct ExecutedCommand {
  CommandType type = CommandType::Ping;
  std::string argument;
  SimTime at = 0;
  bool rented = false;
};

/// One OnionBot.
class Bot {
 public:
  enum class Stage { Infected, Rally, Waiting, Executing };
  using PeerTable = std::map<tor::OnionAddress, PeerInfo>;

  /// Constructed by Botnet; `kb` is the link key shared with the C&C at
  /// infection time.
  Bot(Botnet& net, std::uint32_t id, Bytes kb, BotConfig config);

  std::uint32_t id() const { return id_; }
  bool alive() const { return alive_; }
  Stage stage() const { return stage_; }

  /// Current .onion address (changes every rotation period).
  const tor::OnionAddress& address() const { return address_; }

  /// Current peer table (keyed by peer .onion address).
  const PeerTable& peers() const { return peers_; }
  std::size_t degree() const { return peers_.size(); }

  /// Commands this bot executed.
  const std::vector<ExecutedCommand>& executed() const { return executed_; }

  /// Subgroup keys this bot holds (group id -> key).
  const std::map<std::uint64_t, Bytes>& group_keys() const {
    return group_keys_;
  }

  /// Rally from a bootstrap list (hard-coded peer list / hotlist entry
  /// points): requests peering until reaching dmin or exhausting leads,
  /// following returned neighbor lists (paper §IV-B).
  void rally(std::vector<tor::OnionAddress> bootstrap);

  /// Number of broadcast envelopes this bot relayed (stealth accounting).
  std::uint64_t broadcasts_relayed() const { return broadcasts_relayed_; }

 private:
  friend class Botnet;

  // --- service plumbing ---
  Bytes handle_request(BytesView request);
  void publish_current_address();
  void send(const tor::OnionAddress& to, Bytes message,
            tor::ConnectCallback callback = {});

  // --- message handlers ---
  Bytes on_peer_request(const PeerRequestMsg& m);
  void on_peer_drop(const PeerDropMsg& m);
  void on_non_share(const NoNShareMsg& m);
  void on_address_change(const AddressChangeMsg& m);
  Bytes on_broadcast(BytesView message);
  Bytes on_direct_command(BytesView message);
  Bytes on_probe_challenge(BytesView message);

  // --- peering ---
  /// The one request path: sends `to` a PeerRequest; on acceptance adopts
  /// the peer (declared degree, last-seen time, neighbors) and challenges
  /// it when probing, then calls `then(adopted)` unless this bot died.
  void ask_peer(const tor::OnionAddress& to,
                std::function<void(bool adopted)> then = {});
  /// Forgets `victim` and sends it a PeerDrop (eviction and pruning).
  void drop_peer(PeerTable::iterator victim);
  /// Sends `to` a §VII-A keyed challenge, then calls `then(reachable,
  /// answered)` unless this bot died; `answered`: the reply was right.
  void challenge(const tor::OnionAddress& to,
                 std::function<void(bool reachable, bool answered)> then);

  /// The state of one rally walk, shared by its pending replies.
  struct RallyWalk {
    std::deque<tor::OnionAddress> leads;
    std::set<tor::OnionAddress> tried;
  };
  /// Asks the next untried lead (its reply resumes) until dmin or none.
  void continue_rally(const std::shared_ptr<RallyWalk>& walk);

  // --- maintenance ---
  void schedule_heartbeat();
  void schedule_non_share();
  void schedule_rotation();
  void heartbeat();
  /// Probe-before-adopt (§VII-A, when probe_peers is on): challenges a
  /// freshly accepted peer and forgets it on a wrong answer. A right
  /// answer prunes back to dmax, which is when a full bot evicts for it.
  void challenge_new_peer(const tor::OnionAddress& addr);
  void share_non();
  void rotate_address();
  void peer_died(const tor::OnionAddress& dead);
  void prune_if_needed();
  void refill_if_needed();
  void execute(const SignedCommand& cmd);
  bool fresh_nonce(std::uint64_t nonce);

  Botnet& net_;
  std::uint32_t id_;
  Bytes kb_;
  BotConfig config_;
  bool alive_ = true;
  Stage stage_ = Stage::Infected;

  tor::EndpointId endpoint_ = tor::kInvalidEndpoint;
  crypto::RsaKeyPair service_key_;
  tor::OnionAddress address_;
  std::uint64_t current_period_ = 0;

  PeerTable peers_;
  std::set<crypto::Sha1Digest> seen_broadcasts_;
  std::set<std::uint64_t> seen_nonces_;
  std::vector<ExecutedCommand> executed_;
  std::uint64_t broadcasts_relayed_ = 0;
  /// Subgroup keys installed by InstallGroupKey commands (paper §IV-D).
  /// Envelopes under a key the bot lacks are relayed unread.
  std::map<std::uint64_t, Bytes> group_keys_;
  /// This bot's own stream: nonces, shuffles and eviction ties.
  Rng rng_;
};

/// The botmaster: holds the master key pair, the group (broadcast) key,
/// and the bot registry of link keys K_B — everything needed to derive
/// every bot's current address and to sign commands. Reaches the botnet
/// only through Tor; never appears as anything but another endpoint.
class Botmaster {
 public:
  Botmaster(Botnet& net, Rng& rng);

  const crypto::RsaPublicKey& public_key() const { return key_.pub; }
  const Bytes& group_key() const { return group_key_; }

  /// Registers an infected bot's link key ({K_B}_{PK_CC} in the paper;
  /// the harness models the rally-time registration having happened).
  void register_bot(std::uint32_t bot_id, BytesView kb);

  /// The address bot `bot_id` answers on during `period` — derived
  /// independently of the bot, which is what makes rotation free for the
  /// C&C (paper §IV-D).
  tor::OnionAddress derive_address(std::uint32_t bot_id,
                                   std::uint64_t period) const;

  /// Builds and signs a broadcast command, wraps it in a uniform-looking
  /// envelope, and injects it at `fanout` random alive bots.
  void broadcast(Command cmd, std::size_t fanout = 3);

  /// Same, but signed by a renter under a rental token.
  void broadcast_rented(const crypto::RsaKeyPair& renter,
                        const RentalToken& token, Command cmd,
                        std::size_t fanout = 3);

  /// Sends a command directly to one bot's current address; the callback
  /// reports delivery.
  void direct(std::uint32_t bot_id, Command cmd,
              tor::ConnectCallback callback = {});

  /// Issues a rental token (paper §IV-E).
  RentalToken rent(const crypto::RsaPublicKey& renter, SimTime expires_at,
                   std::vector<CommandType> whitelist) const;

  /// --- subgroups (paper §IV-D group keys) -----------------------------
  /// Creates a group over `members`: generates a key and delivers it to
  /// each member with a signed InstallGroupKey direct command. Returns
  /// the group id.
  std::uint64_t create_group(const std::vector<std::uint32_t>& members);

  /// Signs `cmd` and floods it in an envelope only group members can
  /// open; everyone else relays it unread. Precondition: group exists.
  void broadcast_group(std::uint64_t group, Command cmd,
                       std::size_t fanout = 3);

  /// Members of a group (introspection for tests/benches).
  const std::vector<std::uint32_t>& group_members(std::uint64_t group) const;

  /// Fresh nonce for a new command.
  std::uint64_t next_nonce() { return rng_.next_u64(); }

 private:
  struct Group {
    Bytes key;
    std::vector<std::uint32_t> members;
  };

  void inject(Bytes message, std::size_t fanout);

  Botnet& net_;
  Rng& rng_;
  crypto::RsaKeyPair key_;
  Bytes group_key_;
  tor::EndpointId endpoint_ = tor::kInvalidEndpoint;
  std::map<std::uint32_t, Bytes> registry_;
  std::map<std::uint64_t, Group> groups_;
};

/// The whole simulated botnet: simulator + Tor network + bots + master.
class Botnet {
 public:
  struct Params {
    std::size_t num_bots = 50;
    /// Initial overlay degree (bots arrive pre-rallied into a random
    /// k-regular overlay; use Bot::rally to exercise live bootstrap).
    std::size_t initial_degree = 4;
    BotConfig bot;
    tor::TorConfig tor;
    std::uint64_t seed = 0x0badbee5;
  };

  explicit Botnet(Params params);

  sim::Simulator& simulator() { return sim_; }
  tor::TorNetwork& tor() { return tor_; }
  Botmaster& master() { return *master_; }
  const Params& params() const { return params_; }
  Rng& rng() { return rng_; }

  std::size_t num_bots() const { return bots_.size(); }
  Bot& bot(std::size_t i) { return *bots_.at(i); }
  const Bot& bot(std::size_t i) const { return *bots_.at(i); }
  std::size_t num_alive() const;

  /// Advances virtual time.
  void run_for(SimDuration d) { sim_.run_until(sim_.now() + d); }

  /// Takedown of one bot: its services vanish; peers discover the death
  /// through failed heartbeats and run DDSR repair.
  void kill_bot(std::size_t i);

  /// Adds a fresh bot (infection event); it must rally() to join.
  Bot& infect_new_bot();

  /// Current rotation period index.
  std::uint64_t current_period() const {
    return sim_.now() / params_.bot.rotation_period;
  }

  /// Snapshot of the overlay as a graph over bot IDs (mutual peer-table
  /// entries between alive bots). The omniscient-observer view used by
  /// tests and benches; no bot has this picture.
  graph::Graph overlay_snapshot() const;

  /// Bot ID currently answering on `address`, if any.
  std::optional<std::uint32_t> bot_by_address(
      const tor::OnionAddress& address) const;

  /// Total executions of `type` across all bots (dead ones included).
  std::size_t count_executed(CommandType type) const;

 private:
  friend class Bot;
  friend class Botmaster;

  Params params_;
  Rng rng_;
  sim::Simulator sim_;
  tor::TorNetwork tor_;
  std::unique_ptr<Botmaster> master_;
  std::vector<std::unique_ptr<Bot>> bots_;
};

}  // namespace onion::core
