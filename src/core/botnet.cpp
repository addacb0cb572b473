#include "core/botnet.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/eviction.hpp"
#include "crypto/elligator_sim.hpp"
#include "crypto/sha1.hpp"
#include "graph/generators.hpp"

namespace onion::core {

// Ranks a peer-table entry by the degree the peer declared.
constexpr auto declared_degree = [](const Bot::PeerTable::value_type& peer) {
  return peer.second.declared_degree;
};

// ====================================================================
// Bot
// ====================================================================

Bot::Bot(Botnet& net, std::uint32_t id, Bytes kb, BotConfig config)
    : net_(net),
      id_(id),
      kb_(std::move(kb)),
      config_(config),
      rng_(net.rng().next_u64()) {
  endpoint_ = net_.tor().create_endpoint();
  current_period_ = net_.current_period();
  service_key_ = crypto::rotated_service_key(net_.master().public_key(),
                                             kb_, current_period_);
  address_ = tor::OnionAddress::from_public_key(service_key_.pub);
  publish_current_address();
  schedule_heartbeat();
  schedule_non_share();
  schedule_rotation();
  stage_ = Stage::Waiting;
}

void Bot::publish_current_address() {
  net_.tor().publish_service(
      endpoint_, service_key_,
      [this](BytesView request, const tor::OnionAddress&) -> Bytes {
        if (!alive_) return {};
        return handle_request(request);
      });
}

void Bot::send(const tor::OnionAddress& to, Bytes message,
               tor::ConnectCallback callback) {
  if (!callback) callback = [](const tor::ConnectResult&) {};
  net_.tor().connect_and_send(endpoint_, to, std::move(message),
                              std::move(callback));
}

Bytes Bot::handle_request(BytesView request) {
  try {
    switch (peek_kind(request)) {
      case MessageKind::PeerRequest:
        return on_peer_request(parse_peer_request(request));
      case MessageKind::PeerDrop:
        on_peer_drop(parse_peer_drop(request));
        return encode_ping();
      case MessageKind::NoNShare:
        on_non_share(parse_non_share(request));
        return encode_ping();
      case MessageKind::AddressChange:
        on_address_change(parse_address_change(request));
        return encode_ping();
      case MessageKind::Ping:
        return encode_ping();
      case MessageKind::Broadcast:
        return on_broadcast(request);
      case MessageKind::DirectCommand:
        return on_direct_command(request);
      case MessageKind::Probe:
        // Basic bots acknowledge probes; SuperOnion hosts (the
        // graph-level superonion/super_network model) add semantics.
        return encode_ping();
      case MessageKind::ProbeChallenge:
        return on_probe_challenge(request);
    }
  } catch (const WireError&) {
    // Hostile or corrupt input: acknowledge blandly, reveal nothing.
  }
  return encode_ping();
}

Bytes Bot::on_peer_request(const PeerRequestMsg& m) {
  PeerReplyMsg reply;
  reply.declared_degree = static_cast<std::uint16_t>(degree());

  bool accepted = false;
  if (m.from == address_) {
    accepted = false;  // self-peering is meaningless
  } else if (peers_.count(m.from) > 0) {
    accepted = true;  // refresh
  } else if (degree() < config_.dmax) {
    accepted = true;
  } else {
    // Full: evict the highest-declared-degree peer iff the requester
    // undercuts it (the acceptance rule SOAP exploits; Figure 7 step 4).
    // An empty table ranks at degree 0, which no requester undercuts.
    // Under probing the eviction waits for the requester's answer
    // (challenge_new_peer), so a clone never costs an honest link.
    const auto worst = highest_degree_peer(peers_, declared_degree, rng_);
    if (m.declared_degree < worst.degree) {
      if (!config_.probe_peers) drop_peer(worst.peer);
      accepted = true;
    }
  }

  if (accepted) {
    const bool was_new = peers_.count(m.from) == 0;
    PeerInfo& info = peers_[m.from];
    info.declared_degree = m.declared_degree;
    info.last_seen = net_.simulator().now();
    info.failed_pings = 0;
    // Share our neighbor list (minus the requester): NoN bootstrap.
    for (const auto& [addr, unused] : peers_)
      if (addr != m.from) reply.neighbors.push_back(addr);
    if (was_new) challenge_new_peer(m.from);
  }
  reply.accepted = accepted;
  return encode_peer_reply(reply);
}

void Bot::on_peer_drop(const PeerDropMsg& m) {
  peers_.erase(m.from);
  refill_if_needed();
}

void Bot::on_non_share(const NoNShareMsg& m) {
  const auto it = peers_.find(m.from);
  if (it == peers_.end()) {
    // A stranger listing us holds a half-open entry (a PeerDrop landing
    // after the two bots peered again leaves one): close it there too.
    send(m.from, encode_peer_drop(PeerDropMsg{address_}));
    return;
  }
  it->second.neighbors = m.neighbors;
  it->second.declared_degree = m.declared_degree;
  it->second.last_seen = net_.simulator().now();
  it->second.failed_pings = 0;
}

void Bot::on_address_change(const AddressChangeMsg& m) {
  const auto it = peers_.find(m.old_address);
  if (it == peers_.end()) return;
  PeerInfo info = std::move(it->second);
  peers_.erase(it);
  info.last_seen = net_.simulator().now();
  info.failed_pings = 0;
  peers_[m.new_address] = std::move(info);
}

Bytes Bot::on_broadcast(BytesView message) {
  const Bytes envelope = parse_broadcast(message);
  const crypto::Sha1Digest digest = crypto::Sha1::hash(envelope);
  if (!seen_broadcasts_.insert(digest).second) return encode_ping();

  // Attempt to read it under every key this bot holds: the botnet-wide
  // key plus any installed subgroup keys. An envelope for a key the bot
  // lacks (or garbage) simply fails authentication and is still relayed
  // — a relaying bot cannot distinguish source, destination, or nature
  // (paper §IV-D).
  std::optional<Bytes> opened =
      crypto::uniform_decode(net_.master().group_key(), envelope);
  for (auto it = group_keys_.begin();
       !opened && it != group_keys_.end(); ++it) {
    opened = crypto::uniform_decode(it->second, envelope);
  }
  if (opened) {
    try {
      const SignedCommand cmd = SignedCommand::parse(*opened);
      if (cmd.verify(net_.master().public_key(), net_.simulator().now(),
                     config_.command_max_age) &&
          fresh_nonce(cmd.command.nonce)) {
        execute(cmd);
      }
    } catch (const WireError&) {
    }
  }

  // Flood onward.
  const Bytes onward = encode_broadcast(envelope);
  for (const auto& [addr, unused] : peers_) send(addr, onward);
  ++broadcasts_relayed_;
  return encode_ping();
}

Bytes Bot::on_direct_command(BytesView message) {
  // The one-byte acknowledgement: 1 executed, 0 refused.
  try {
    const SignedCommand cmd = parse_direct_command(message);
    if (cmd.verify(net_.master().public_key(), net_.simulator().now(),
                   config_.command_max_age) &&
        fresh_nonce(cmd.command.nonce)) {
      execute(cmd);
      return Bytes{1};
    }
  } catch (const WireError&) {
  }
  return Bytes{0};
}

Bytes Bot::on_probe_challenge(BytesView message) {
  // Decode the challenge envelope under the group key and answer the
  // keyed MAC. Anything we cannot read gets a bland ping — exactly what
  // a clone would be forced to send, so the reply-shape itself does not
  // advertise membership to a non-member prober.
  const Bytes envelope = parse_probe_challenge(message);
  if (const auto nonce =
          crypto::uniform_decode(net_.master().group_key(), envelope)) {
    return probe_challenge_answer(net_.master().group_key(), *nonce);
  }
  return encode_ping();
}

bool Bot::fresh_nonce(std::uint64_t nonce) {
  return seen_nonces_.insert(nonce).second;
}

void Bot::execute(const SignedCommand& cmd) {
  stage_ = Stage::Executing;
  executed_.push_back(ExecutedCommand{cmd.command.type,
                                      cmd.command.argument,
                                      net_.simulator().now(),
                                      cmd.token.has_value()});
  if (cmd.command.type == CommandType::InstallGroupKey) {
    // Argument "<group-id-hex>:<key-hex>"; malformed arguments are
    // dropped silently (never trust input, even master-signed).
    const std::string& arg = cmd.command.argument;
    const std::size_t colon = arg.find(':');
    if (colon != std::string::npos) {
      try {
        const Bytes gid_bytes = from_hex(arg.substr(0, colon));
        const Bytes key = from_hex(arg.substr(colon + 1));
        if (gid_bytes.size() == 8 && !key.empty()) {
          std::uint64_t gid = 0;
          for (const std::uint8_t b : gid_bytes) gid = gid << 8 | b;
          group_keys_[gid] = key;
        }
      } catch (const std::invalid_argument&) {
      }
    }
  }
  // Simulated work; back to Waiting afterwards.
  net_.simulator().schedule_in(1 * kSecond, [this] {
    if (alive_ && stage_ == Stage::Executing) stage_ = Stage::Waiting;
  });
}

void Bot::schedule_heartbeat() {
  // Per-bot phase offset so the whole botnet does not ping in lockstep.
  const SimDuration offset = rng_.uniform(config_.heartbeat_interval);
  net_.simulator().schedule_in(config_.heartbeat_interval + offset -
                                   config_.heartbeat_interval / 2,
                               [this] { heartbeat(); });
}

void Bot::heartbeat() {
  if (!alive_) return;
  std::vector<tor::OnionAddress> targets;
  targets.reserve(peers_.size());
  for (const auto& [addr, unused] : peers_) targets.push_back(addr);
  for (const auto& addr : targets) {
    auto on_reply = [this, addr](bool reachable, bool answered) {
      const auto it = peers_.find(addr);
      if (it == peers_.end()) return;
      if (answered) {
        it->second.failed_pings = 0;
        it->second.last_seen = net_.simulator().now();
      } else if (reachable) {
        // Reachable but cannot answer the challenge: a clone. Forget it
        // now, not merely after dead-ping strikes.
        peers_.erase(it);
        refill_if_needed();
      } else if (++it->second.failed_pings >= kPingFailuresForDead) {
        peer_died(addr);
      }
    };
    // §VII-A probing replaces the plain ping with the keyed challenge.
    if (config_.probe_peers) {
      challenge(addr, std::move(on_reply));
    } else {
      send(addr, encode_ping(),
           [this, on_reply = std::move(on_reply)](
               const tor::ConnectResult& r) {
             if (alive_) on_reply(r.ok, r.ok);
           });
    }
  }
  net_.simulator().schedule_in(config_.heartbeat_interval,
                               [this] { heartbeat(); });
}

void Bot::challenge(const tor::OnionAddress& to,
                    std::function<void(bool, bool)> then) {
  Bytes nonce(16);
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng_.next_u64());
  const Bytes envelope =
      crypto::uniform_encode(net_.master().group_key(), nonce, rng_);
  send(to, encode_probe_challenge(envelope),
       [this, then = std::move(then),
        expected = probe_challenge_answer(net_.master().group_key(),
                                          nonce)](
           const tor::ConnectResult& r) {
         if (alive_) then(r.ok, r.ok && r.reply == expected);
       });
}

void Bot::challenge_new_peer(const tor::OnionAddress& addr) {
  if (!config_.probe_peers) return;
  challenge(addr, [this, addr](bool, bool answered) {
    if (answered)
      prune_if_needed();  // the eviction on_peer_request deferred
    else if (peers_.erase(addr) > 0)
      refill_if_needed();  // wrong answer or unreachable: never adopt
  });
}

void Bot::schedule_non_share() {
  const SimDuration offset = rng_.uniform(config_.non_share_interval);
  net_.simulator().schedule_in(offset + 1, [this] { share_non(); });
}

void Bot::share_non() {
  if (!alive_) return;
  NoNShareMsg msg;
  msg.from = address_;
  msg.declared_degree = static_cast<std::uint16_t>(degree());
  for (const auto& [addr, unused] : peers_) msg.neighbors.push_back(addr);
  const Bytes bytes = encode_non_share(msg);
  for (const auto& addr : msg.neighbors) send(addr, bytes);
  net_.simulator().schedule_in(config_.non_share_interval,
                               [this] { share_non(); });
}

void Bot::schedule_rotation() {
  const SimTime next_boundary =
      (current_period_ + 1) * config_.rotation_period;
  const SimTime now = net_.simulator().now();
  const SimDuration wait = next_boundary > now ? next_boundary - now : 1;
  net_.simulator().schedule_in(wait, [this] { rotate_address(); });
}

void Bot::rotate_address() {
  if (!alive_) return;
  const std::uint64_t new_period = net_.current_period();
  if (new_period == current_period_) {  // boundary jitter; re-arm
    schedule_rotation();
    return;
  }
  const tor::OnionAddress old_address = address_;
  current_period_ = new_period;
  service_key_ = crypto::rotated_service_key(net_.master().public_key(),
                                             kb_, current_period_);
  address_ = tor::OnionAddress::from_public_key(service_key_.pub);
  publish_current_address();

  // Tell current peers, then retire the old identity after a grace
  // period so in-flight connections complete ("Forgetting", §IV-C).
  const Bytes notice = encode_address_change(
      AddressChangeMsg{old_address, address_});
  for (const auto& [addr, unused] : peers_) send(addr, notice);
  net_.simulator().schedule_in(30 * kSecond, [this, old_address] {
    net_.tor().unpublish_service(endpoint_, old_address);
  });
  schedule_rotation();
}

void Bot::peer_died(const tor::OnionAddress& dead) {
  const auto it = peers_.find(dead);
  if (it == peers_.end()) return;
  // DDSR repair: reconnect with the dead peer's other neighbors, known
  // through NoN exchange (paper §IV-C "Repairing").
  const std::vector<tor::OnionAddress> former = it->second.neighbors;
  peers_.erase(it);
  for (const auto& candidate : former) {
    if (candidate == address_ || candidate == dead) continue;
    if (peers_.count(candidate) > 0) continue;
    ask_peer(candidate, [this](bool adopted) {
      if (adopted) prune_if_needed();
    });
  }
  refill_if_needed();
}

void Bot::prune_if_needed() {
  // Pruning (paper §IV-C): shed highest-declared-degree peers until back
  // inside the band.
  while (degree() > config_.dmax)
    drop_peer(highest_degree_peer(peers_, declared_degree, rng_).peer);
}

void Bot::drop_peer(PeerTable::iterator victim) {
  const tor::OnionAddress dropped = victim->first;
  peers_.erase(victim);
  send(dropped, encode_peer_drop(PeerDropMsg{address_}));
}

void Bot::refill_if_needed() {
  if (degree() >= config_.dmin) return;
  // Refill from NoN: candidates are neighbors of current peers.
  std::vector<tor::OnionAddress> candidates;
  for (const auto& [addr, info] : peers_) {
    for (const auto& nn : info.neighbors) {
      if (nn == address_ || peers_.count(nn) > 0) continue;
      if (std::find(candidates.begin(), candidates.end(), nn) ==
          candidates.end())
        candidates.push_back(nn);
    }
  }
  rng_.shuffle(candidates);
  const std::size_t want = config_.dmin - degree();
  for (std::size_t i = 0; i < candidates.size() && i < want; ++i)
    ask_peer(candidates[i]);
}

void Bot::ask_peer(const tor::OnionAddress& to,
                   std::function<void(bool)> then) {
  PeerRequestMsg req;
  req.from = address_;
  req.declared_degree = static_cast<std::uint16_t>(degree());
  send(to, encode_peer_request(req),
       [this, to, then = std::move(then)](const tor::ConnectResult& r) {
         if (!alive_) return;
         bool adopted = false;
         if (r.ok) {
           try {
             PeerReplyMsg reply = parse_peer_reply(r.reply);
             if (reply.accepted) {
               PeerInfo& info = peers_[to];
               info.declared_degree = reply.declared_degree;
               info.last_seen = net_.simulator().now();
               info.neighbors = std::move(reply.neighbors);
               challenge_new_peer(to);
               adopted = true;
             }
           } catch (const WireError&) {
           }
         }
         if (then) then(adopted);
       });
}

void Bot::rally(std::vector<tor::OnionAddress> bootstrap) {
  stage_ = Stage::Rally;
  auto walk = std::make_shared<RallyWalk>();
  walk->leads.assign(bootstrap.begin(), bootstrap.end());
  continue_rally(std::move(walk));
}

void Bot::continue_rally(const std::shared_ptr<RallyWalk>& walk) {
  if (!alive_) return;
  // Ask one untried lead at a time; an accepting lead's neighbor list
  // extends the queue (hotlist behavior). The pending reply holds the
  // walk and resumes it.
  while (degree() < config_.dmin && !walk->leads.empty()) {
    const tor::OnionAddress lead = walk->leads.front();
    walk->leads.pop_front();
    if (lead == address_ || peers_.count(lead) > 0 ||
        !walk->tried.insert(lead).second)
      continue;
    ask_peer(lead, [this, walk, lead](bool adopted) {
      if (adopted) {
        const auto& neighbors = peers_.at(lead).neighbors;
        walk->leads.insert(walk->leads.end(), neighbors.begin(),
                           neighbors.end());
      }
      continue_rally(walk);
    });
    return;
  }
  if (degree() > 0) stage_ = Stage::Waiting;
}

// ====================================================================
// Botmaster
// ====================================================================

Botmaster::Botmaster(Botnet& net, Rng& rng) : net_(net), rng_(rng) {
  key_ = crypto::rsa_generate(rng_, /*nominal_bits=*/2048);
  group_key_.resize(32);
  for (auto& b : group_key_) b = static_cast<std::uint8_t>(rng_.next_u64());
  endpoint_ = net_.tor().create_endpoint();
}

void Botmaster::register_bot(std::uint32_t bot_id, BytesView kb) {
  // In the field this is {K_B}_{PK_CC} sent at rally time; the hybrid
  // encryption path is exercised in tests (crypto::rsa_hybrid_*).
  registry_[bot_id] = Bytes(kb.begin(), kb.end());
}

tor::OnionAddress Botmaster::derive_address(std::uint32_t bot_id,
                                            std::uint64_t period) const {
  const auto it = registry_.find(bot_id);
  ONION_EXPECTS(it != registry_.end());
  const crypto::RsaKeyPair key =
      crypto::rotated_service_key(key_.pub, it->second, period);
  return tor::OnionAddress::from_public_key(key.pub);
}

void Botmaster::inject(Bytes message, std::size_t fanout) {
  std::vector<std::uint32_t> alive;
  for (std::size_t i = 0; i < net_.num_bots(); ++i)
    if (net_.bot(i).alive()) alive.push_back(static_cast<std::uint32_t>(i));
  if (alive.empty()) return;
  rng_.shuffle(alive);
  const std::size_t n = std::min(fanout, alive.size());
  for (std::size_t i = 0; i < n; ++i) {
    const tor::OnionAddress addr =
        derive_address(alive[i], net_.current_period());
    net_.tor().connect_and_send(endpoint_, addr, message,
                                [](const tor::ConnectResult&) {});
  }
}

void Botmaster::broadcast(Command cmd, std::size_t fanout) {
  cmd.issued_at = net_.simulator().now();
  cmd.nonce = next_nonce();
  const SignedCommand signed_cmd = sign_command(key_, std::move(cmd));
  const Bytes envelope =
      crypto::uniform_encode(group_key_, signed_cmd.serialize(), rng_);
  inject(encode_broadcast(envelope), fanout);
}

void Botmaster::broadcast_rented(const crypto::RsaKeyPair& renter,
                                 const RentalToken& token, Command cmd,
                                 std::size_t fanout) {
  cmd.issued_at = net_.simulator().now();
  cmd.nonce = next_nonce();
  const SignedCommand signed_cmd =
      sign_rented_command(renter, token, std::move(cmd));
  const Bytes envelope =
      crypto::uniform_encode(group_key_, signed_cmd.serialize(), rng_);
  inject(encode_broadcast(envelope), fanout);
}

void Botmaster::direct(std::uint32_t bot_id, Command cmd,
                       tor::ConnectCallback callback) {
  cmd.issued_at = net_.simulator().now();
  cmd.nonce = next_nonce();
  const SignedCommand signed_cmd = sign_command(key_, std::move(cmd));
  if (!callback) callback = [](const tor::ConnectResult&) {};
  const tor::OnionAddress addr =
      derive_address(bot_id, net_.current_period());
  net_.tor().connect_and_send(endpoint_, addr,
                              encode_direct_command(signed_cmd),
                              std::move(callback));
}

RentalToken Botmaster::rent(const crypto::RsaPublicKey& renter,
                            SimTime expires_at,
                            std::vector<CommandType> whitelist) const {
  return issue_rental_token(key_, renter, expires_at, std::move(whitelist));
}

std::uint64_t Botmaster::create_group(
    const std::vector<std::uint32_t>& members) {
  Group group;
  group.key.resize(32);
  for (auto& b : group.key) b = static_cast<std::uint8_t>(rng_.next_u64());
  group.members = members;
  const std::uint64_t gid = rng_.next_u64();
  groups_[gid] = group;

  // Key delivery rides the ordinary signed direct-command channel: the
  // Tor rendezvous link to each member's hidden service is end-to-end
  // encrypted, so the key bytes are confidential in transit.
  const std::string argument = to_hex(be64(gid)) + ":" + to_hex(group.key);
  for (const std::uint32_t member : members) {
    Command cmd;
    cmd.type = CommandType::InstallGroupKey;
    cmd.argument = argument;
    direct(member, std::move(cmd));
  }
  return gid;
}

void Botmaster::broadcast_group(std::uint64_t group, Command cmd,
                                std::size_t fanout) {
  const auto it = groups_.find(group);
  ONION_EXPECTS(it != groups_.end());
  cmd.issued_at = net_.simulator().now();
  cmd.nonce = next_nonce();
  const SignedCommand signed_cmd = sign_command(key_, std::move(cmd));
  const Bytes envelope =
      crypto::uniform_encode(it->second.key, signed_cmd.serialize(), rng_);
  inject(encode_broadcast(envelope), fanout);
}

const std::vector<std::uint32_t>& Botmaster::group_members(
    std::uint64_t group) const {
  const auto it = groups_.find(group);
  ONION_EXPECTS(it != groups_.end());
  return it->second.members;
}

// ====================================================================
// Botnet
// ====================================================================

Botnet::Botnet(Params params)
    : params_(params),
      rng_(params.seed),
      sim_(),
      tor_(sim_, params.tor, rng_.next_u64()) {
  master_ = std::make_unique<Botmaster>(*this, rng_);

  for (std::size_t i = 0; i < params_.num_bots; ++i) {
    Bytes kb(32);
    for (auto& b : kb) b = static_cast<std::uint8_t>(rng_.next_u64());
    master_->register_bot(static_cast<std::uint32_t>(i), kb);
    bots_.push_back(std::make_unique<Bot>(
        *this, static_cast<std::uint32_t>(i), std::move(kb), params_.bot));
  }

  // Pre-rallied overlay: a random k-regular graph, materialized into the
  // bots' peer tables (live rally is exercised via Bot::rally()).
  if (params_.num_bots > params_.initial_degree + 1 &&
      params_.initial_degree > 0) {
    std::size_t k = params_.initial_degree;
    if ((params_.num_bots * k) % 2 != 0) ++k;  // parity fix
    const graph::Graph topology =
        graph::random_regular(params_.num_bots, k, rng_);
    for (graph::NodeId u = 0; u < params_.num_bots; ++u) {
      for (const graph::NodeId v : topology.neighbors(u)) {
        if (u >= v) continue;
        Bot& a = *bots_[u];
        Bot& b = *bots_[v];
        PeerInfo ai;
        ai.declared_degree = static_cast<std::uint16_t>(k);
        a.peers_[b.address_] = ai;
        b.peers_[a.address_] = ai;
      }
    }
    // Seed NoN knowledge so the first repairs have material before the
    // first periodic NoN exchange fires.
    for (auto& bot : bots_) {
      for (auto& [addr, info] : bot->peers_) {
        const auto peer_id = bot_by_address(addr);
        if (!peer_id) continue;
        const Bot& peer = *bots_[*peer_id];
        for (const auto& [paddr, punused] : peer.peers_)
          if (paddr != bot->address_) info.neighbors.push_back(paddr);
        info.declared_degree =
            static_cast<std::uint16_t>(peer.peers_.size());
      }
    }
  }
}

std::size_t Botnet::num_alive() const {
  std::size_t n = 0;
  for (const auto& bot : bots_)
    if (bot->alive()) ++n;
  return n;
}

void Botnet::kill_bot(std::size_t i) {
  Bot& bot = *bots_.at(i);
  if (!bot.alive_) return;
  bot.alive_ = false;
  tor_.unpublish_service(bot.endpoint_, bot.address_);
}

Bot& Botnet::infect_new_bot() {
  const auto id = static_cast<std::uint32_t>(bots_.size());
  Bytes kb(32);
  for (auto& b : kb) b = static_cast<std::uint8_t>(rng_.next_u64());
  master_->register_bot(id, kb);
  bots_.push_back(
      std::make_unique<Bot>(*this, id, std::move(kb), params_.bot));
  return *bots_.back();
}

graph::Graph Botnet::overlay_snapshot() const {
  graph::Graph g(bots_.size());
  for (std::size_t i = 0; i < bots_.size(); ++i)
    if (!bots_[i]->alive()) g.remove_node(static_cast<graph::NodeId>(i));
  for (std::size_t i = 0; i < bots_.size(); ++i) {
    const Bot& a = *bots_[i];
    if (!a.alive()) continue;
    for (const auto& [addr, unused] : a.peers_) {
      const auto j = bot_by_address(addr);
      if (!j || !bots_[*j]->alive()) continue;
      // Mutual entries only: both sides consider the link live.
      if (bots_[*j]->peers_.count(a.address_) > 0)
        g.add_edge(static_cast<graph::NodeId>(i),
                   static_cast<graph::NodeId>(*j));
    }
  }
  return g;
}

std::optional<std::uint32_t> Botnet::bot_by_address(
    const tor::OnionAddress& address) const {
  for (std::size_t i = 0; i < bots_.size(); ++i)
    if (bots_[i]->address_ == address)
      return static_cast<std::uint32_t>(i);
  return std::nullopt;
}

std::size_t Botnet::count_executed(CommandType type) const {
  std::size_t n = 0;
  for (const auto& bot : bots_)
    for (const auto& e : bot->executed())
      if (e.type == type) ++n;
  return n;
}

}  // namespace onion::core
