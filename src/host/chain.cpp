#include "host/chain.hpp"

#include <algorithm>
#include <cmath>

namespace bmg::host {

namespace {
/// Seed of the dedicated RNG stream for reorg trigger/depth/survival
/// draws, so arming forks never perturbs the inclusion or fault streams.
constexpr std::uint64_t kReorgSeed = 0x4E0'26F0'5CA1'D21Bull;
}  // namespace

void TxContext::emit_event(std::string name, Bytes data) {
  chain_.tx_event_buffer_.push_back(
      Event{slot_, time_, /*program=*/"", std::move(name), std::move(data)});
}

std::uint64_t TxContext::balance(const crypto::PublicKey& who) const {
  return chain_.balance(who);
}

void TxContext::transfer(const crypto::PublicKey& from, const crypto::PublicKey& to,
                         std::uint64_t lamports) {
  std::uint64_t already_spent = 0;
  for (const auto& t : chain_.tx_transfer_buffer_)
    if (std::get<0>(t) == from) already_spent += std::get<2>(t);
  if (chain_.balance(from) < already_spent + lamports)
    throw TxError("transfer: insufficient funds");
  chain_.tx_transfer_buffer_.emplace_back(from, to, lamports);
}

void TxContext::transfer_from_payer(const crypto::PublicKey& to, std::uint64_t lamports) {
  transfer(tx_.payer, to, lamports);
}

Chain::Chain(sim::Simulation& sim, Rng rng, ChainConfig cfg)
    : sim_(sim),
      rng_(rng),
      fault_rng_(cfg.fault_seed),
      reorg_rng_(kReorgSeed),
      cfg_(std::move(cfg)) {}

void Chain::register_program(const std::string& name, std::unique_ptr<Program> program) {
  programs_[name] = std::move(program);
}

Program& Chain::program(const std::string& name) {
  const auto it = programs_.find(name);
  if (it == programs_.end()) throw std::out_of_range("no such program: " + name);
  return *it->second;
}

void Chain::airdrop(const crypto::PublicKey& who, std::uint64_t lamports) {
  balances_[who] += lamports;
}

std::uint64_t Chain::balance(const crypto::PublicKey& who) const {
  const auto it = balances_.find(who);
  return it == balances_.end() ? 0 : it->second;
}

void Chain::charge_rent(const crypto::PublicKey& payer, std::size_t bytes) {
  const std::uint64_t deposit = kRentLamportsPerByte * bytes;
  auto& bal = balances_[payer];
  if (bal < deposit) throw std::runtime_error("charge_rent: insufficient funds");
  bal -= deposit;
  rent_deposits_[payer] += deposit;
}

std::uint64_t Chain::rent_deposits(const crypto::PublicKey& payer) const {
  const auto it = rent_deposits_.find(payer);
  return it == rent_deposits_.end() ? 0 : it->second;
}

void Chain::start() {
  if (started_) return;
  started_ = true;
  if (cfg_.fork_aware || cfg_.fault.has_reorg_windows()) {
    fork_mode_ = true;
    // Every registered program must be rollback-capable before the
    // first transaction executes; arming mid-run is not supported.
    for (auto& [name, prog] : programs_) {
      if (!prog->fork_supported())
        throw std::runtime_error("chain: program '" + name +
                                 "' does not support fork mode "
                                 "(fork_supported() == false)");
    }
    take_checkpoint(0);
  }
  sim_.after(cfg_.slot_seconds, [this] { on_slot(); });
}

double Chain::inclusion_probability(const FeePolicy& fee) const {
  switch (fee.kind) {
    case FeePolicy::Kind::kPriority:
      return cfg_.p_include_priority;
    case FeePolicy::Kind::kBundle:
      return cfg_.p_include_bundle;
    case FeePolicy::Kind::kBase:
    default:
      return cfg_.p_include_base;
  }
}

void Chain::submit(Transaction tx, ResultHandler on_result) {
  if (tx.wire_size() > cfg_.max_tx_size) {
    TxResult res;
    res.executed = false;
    res.success = false;
    res.error = "transaction too large (" + std::to_string(tx.wire_size()) + " > " +
                std::to_string(cfg_.max_tx_size) + " bytes)";
    res.label = tx.label;
    if (on_result)
      sim_.after(0, [on_result = std::move(on_result), res] { on_result(res); });
    return;
  }

  // First slot at which the transaction is visible to block producers.
  const double visible_at = sim_.now() + kMempoolLatencySeconds;
  const auto first_slot =
      static_cast<std::uint64_t>(std::ceil(visible_at / cfg_.slot_seconds));

  if (cfg_.fault.has_chain_faults()) {
    submit_with_faults(std::move(tx), std::move(on_result), first_slot);
    return;
  }

  // Geometric inclusion delay driven by the fee policy.
  const double p = inclusion_probability(tx.fee);
  std::uint64_t extra = 0;
  while (!rng_.chance(p) && extra <= kTxExpirySlots) ++extra;

  if (extra > kTxExpirySlots) {
    ++dropped_;
    TxResult res;
    res.executed = false;
    res.success = false;
    res.error = "transaction expired (blockhash too old)";
    res.label = tx.label;
    const double expiry_time =
        static_cast<double>(first_slot + kTxExpirySlots) * cfg_.slot_seconds;
    if (on_result)
      sim_.at(expiry_time, [on_result = std::move(on_result), res] { on_result(res); });
    return;
  }

  const std::uint64_t target = std::max(first_slot + extra, slot_ + 1);
  pending_[target].push_back(PendingTx{std::move(tx), std::move(on_result)});
}

void Chain::submit_with_faults(Transaction tx, ResultHandler on_result,
                               std::uint64_t first_slot) {
  const double now = sim_.now();

  // Blackhole: the tx vanishes between the submitter and the cluster;
  // no result handler ever fires.  This is what forces real timeout
  // handling in the relayer pipeline.
  const double p_bh = cfg_.fault.blackhole_probability(now, tx.label);
  if (p_bh > 0 && fault_rng_.chance(p_bh)) {
    ++fault_counters_.blackholed;
    return;
  }

  // Per-slot inclusion scan: each candidate slot applies the congestion
  // multiplier active at that slot's wall time, and outage slots
  // include nothing at all.
  const double p0 = inclusion_probability(tx.fee);
  const std::uint64_t expiry_slot = first_slot + kTxExpirySlots;
  std::uint64_t chosen = 0;
  bool included = false;
  bool congested = false;
  bool waited_out_outage = false;
  for (std::uint64_t s = std::max(first_slot, slot_ + 1); s <= expiry_slot; ++s) {
    const double t = static_cast<double>(s) * cfg_.slot_seconds;
    if (cfg_.fault.in_outage(t)) {
      waited_out_outage = true;
      continue;
    }
    const double m = cfg_.fault.congestion_multiplier(t, tx.label);
    const double p = std::min(p0 * m, 1.0);
    if (p <= 0) {
      congested = true;
      continue;
    }
    if (fault_rng_.chance(p)) {
      chosen = s;
      included = true;
      break;
    }
    if (m < 1.0) congested = true;
  }
  if (congested) ++fault_counters_.congestion_delayed;
  if (waited_out_outage) ++fault_counters_.outage_deferred;

  if (!included) {
    ++dropped_;
    if (waited_out_outage) ++fault_counters_.outage_expired;
    TxResult res;
    res.executed = false;
    res.success = false;
    res.error = "transaction expired (blockhash too old)";
    res.label = tx.label;
    const double expiry_time = static_cast<double>(expiry_slot) * cfg_.slot_seconds;
    if (on_result)
      sim_.at(expiry_time, [on_result = std::move(on_result), res] { on_result(res); });
    return;
  }

  // Duplicate fault: a ghost replay lands one slot later with no
  // handler — the program must tolerate the second execution.
  const double p_dup = cfg_.fault.duplicate_probability(now, tx.label);
  if (p_dup > 0 && fault_rng_.chance(p_dup)) {
    ++fault_counters_.duplicated;
    pending_[chosen + 1].push_back(PendingTx{tx, {}, expiry_slot});
  }

  pending_[chosen].push_back(PendingTx{std::move(tx), std::move(on_result), expiry_slot});
}

void Chain::on_slot() {
  ++slot_;
  if (fork_mode_) maybe_trigger_reorg();

  if (cfg_.fault.has_chain_faults() && cfg_.fault.in_outage(sim_.now())) {
    // Outage slot: produced, but includes nothing.  Defer everything to
    // the next slot, expiring transactions whose blockhash aged out.
    const auto it = pending_.find(slot_);
    if (it != pending_.end()) {
      std::vector<PendingTx> batch = std::move(it->second);
      pending_.erase(it);
      for (auto& ptx : batch) {
        if (slot_ >= ptx.expiry_slot) {
          ++fault_counters_.outage_expired;
          ++dropped_;
          if (ptx.on_result) {
            TxResult res;
            res.executed = false;
            res.success = false;
            res.error = "transaction expired (blockhash too old)";
            res.label = ptx.tx.label;
            sim_.after(0, [on_result = std::move(ptx.on_result), res] { on_result(res); });
          }
          continue;
        }
        ++fault_counters_.outage_deferred;
        pending_[slot_ + 1].push_back(std::move(ptx));
      }
    }
  } else {
    const auto it = pending_.find(slot_);
    if (it != pending_.end()) {
      std::vector<PendingTx> batch = std::move(it->second);
      pending_.erase(it);

      // Block producer ordering: bundles first, then priority fee by
      // price, then base-fee FIFO.
      std::stable_sort(batch.begin(), batch.end(),
                       [](const PendingTx& a, const PendingTx& b) {
        auto rank = [](const FeePolicy& f) {
          switch (f.kind) {
            case FeePolicy::Kind::kBundle:
              return 0;
            case FeePolicy::Kind::kPriority:
              return 1;
            default:
              return 2;
          }
        };
        const int ra = rank(a.tx.fee), rb = rank(b.tx.fee);
        if (ra != rb) return ra < rb;
        return a.tx.fee.cu_price_microlamports > b.tx.fee.cu_price_microlamports;
      });

      std::uint64_t block_cu = 0;
      for (auto& ptx : batch) {
        if (block_cu >= cfg_.block_compute_units) {
          // Block full: spill to the next slot.
          pending_[slot_ + 1].push_back(std::move(ptx));
          continue;
        }
        execute_tx(ptx);
        block_cu += cfg_.max_compute_units;  // conservative per-tx reservation
      }
    }
  }

  if (fork_mode_) {
    deliver_rooted();
    fire_rooted_waits();
  }
  sim_.after(cfg_.slot_seconds, [this] { on_slot(); });
}

FeeBreakdown compute_fee(const Transaction& tx, std::uint64_t cu_used) {
  FeeBreakdown fee;
  fee.base_lamports =
      kLamportsPerSignature * (1 + static_cast<std::uint64_t>(tx.sig_verifies.size()));
  if (tx.fee.kind == FeePolicy::Kind::kPriority)
    fee.priority_lamports = tx.fee.cu_price_microlamports * cu_used / 1'000'000;
  if (tx.fee.kind == FeePolicy::Kind::kBundle) fee.tip_lamports = tx.fee.tip_lamports;
  return fee;
}

void Chain::execute_tx(PendingTx& ptx) {
  (void)execute_tx_at(ptx, slot_, sim_.now(), ExecMode::kLive, true);
}

TxResult Chain::execute_tx_at(PendingTx& ptx, std::uint64_t slot, double time,
                              ExecMode mode, bool journaled_sig_ok) {
  const Transaction& tx = ptx.tx;
  TxResult res;
  res.executed = true;
  res.slot = slot;
  res.time = time;
  res.label = tx.label;

  tx_event_buffer_.clear();
  tx_transfer_buffer_.clear();

  TxContext ctx(*this, tx, slot, time, cfg_.max_compute_units);
  std::string touched_program;
  bool sig_ok = true;
  try {
    // Ed25519 pre-compile runs before the programs.  All signatures of
    // a transaction are checked as one batch (real runtimes verify the
    // whole packet's signatures up front, too).  Fork replays charge
    // the same compute but reuse the journalled verdict — the bytes
    // are unchanged, so re-verifying would only burn wall clock.
    ctx.consume_cu(kCuEd25519PerSig * tx.sig_verifies.size());
    if (!tx.sig_verifies.empty()) {
      if (mode == ExecMode::kLive) {
        std::vector<crypto::ed25519::VerifyItem> items;
        items.reserve(tx.sig_verifies.size());
        for (const auto& sv : tx.sig_verifies)
          items.push_back({sv.pubkey.raw(), sv.message.view(), sv.signature.raw()});
        for (const bool good : crypto::ed25519::verify_batch(items))
          if (!good) {
            sig_ok = false;
            throw TxError("ed25519 pre-compile: invalid signature");
          }
      } else if (!journaled_sig_ok) {
        sig_ok = false;
        throw TxError("ed25519 pre-compile: invalid signature");
      }
    }
    for (const auto& ins : tx.instructions) {
      ctx.consume_cu(kCuInstructionBase);
      Program& prog = program(ins.program);
      touched_program = ins.program;
      prog.execute(ctx, ins.data);
      if (prog.account_bytes() > kMaxAccountSize) throw AccountSizeExceeded();
    }
    res.success = true;
  } catch (const TxError& e) {
    res.success = false;
    res.error = e.what();
  } catch (const std::exception& e) {
    res.success = false;
    res.error = std::string("program panic: ") + e.what();
  }

  res.cu_used = ctx.cu_used();
  res.fee = compute_fee(tx, ctx.cu_used());

  if (cfg_.fault.has_chain_faults()) {
    // Fee spike: the market components (priority fee, bundle tip) cost
    // a multiple of their quoted price; the protocol base fee is fixed.
    // Replays evaluate the multiplier at the original execution time,
    // reproducing the journalled charge exactly.
    const double m = cfg_.fault.fee_multiplier(time);
    if (m != 1.0 && (res.fee.priority_lamports > 0 || res.fee.tip_lamports > 0)) {
      res.fee.priority_lamports =
          static_cast<std::uint64_t>(static_cast<double>(res.fee.priority_lamports) * m);
      res.fee.tip_lamports =
          static_cast<std::uint64_t>(static_cast<double>(res.fee.tip_lamports) * m);
      ++fault_counters_.fee_spiked;
    }
  }

  // Charge fees (saturating — a payer going broke is an operator
  // problem, not a simulator crash).
  auto& bal = balances_[tx.payer];
  bal -= std::min(bal, res.fee.total());
  auto& stats = payer_stats_[tx.payer];
  stats.fees_lamports += res.fee.total();
  stats.tx_count += 1;
  stats.sig_count += 1 + tx.sig_verifies.size();

  std::vector<Event> events;
  if (res.success) {
    ++executed_;
    // Apply buffered transfers, then flush events to subscribers.
    for (const auto& [from, to, amount] : tx_transfer_buffer_) {
      auto& src = balances_[from];
      const std::uint64_t moved = std::min(src, amount);
      src -= moved;
      balances_[to] += moved;
    }
    events = std::move(tx_event_buffer_);
    tx_event_buffer_.clear();
    for (Event& ev : events) ev.program = touched_program;
    if (mode != ExecMode::kSilentReplay) {
      for (const Event& ev : events) {
        const auto sub = subscribers_.find(ev.program);
        if (sub != subscribers_.end())
          for (const auto& handler : sub->second) handler(ev);
      }
    }
  } else {
    ++failed_;
    tx_event_buffer_.clear();
    tx_transfer_buffer_.clear();
  }

  if (mode != ExecMode::kSilentReplay && ptx.on_result) ptx.on_result(res);

  // Journal the execution for fork replay and rooted delivery.  Silent
  // replays reconstruct state for entries already in the journal; live
  // and winning-fork executions (re)append theirs.
  if (fork_mode_ && mode != ExecMode::kSilentReplay)
    journal_[slot].push_back(JournalTx{std::move(ptx.tx), std::move(ptx.on_result),
                                       res, std::move(events), sig_ok});
  return res;
}

void Chain::subscribe(const std::string& program, EventHandler handler) {
  subscribers_[program].push_back(std::move(handler));
}

void Chain::subscribe_rooted(const std::string& program, EventHandler handler) {
  // Armed now, or guaranteed to arm at start() — subscriptions are
  // routinely registered before slot production begins.
  const bool armed = fork_mode_ || (!started_ && (cfg_.fork_aware ||
                                                  cfg_.fault.has_reorg_windows()));
  if (!armed) {
    subscribers_[program].push_back(std::move(handler));
    return;
  }
  // No history replay on subscribe.
  rooted_subs_.push_back(RootedSub{program, std::move(handler), rooted_slot() + 1});
}

Chain::RootedWaitId Chain::when_rooted(std::uint64_t slot, std::function<void()> fn) {
  const bool armed = fork_mode_ || (!started_ && (cfg_.fork_aware ||
                                                  cfg_.fault.has_reorg_windows()));
  if (!armed || slot <= rooted_slot()) {
    // Linear chains root instantly; already-rooted slots fire inline.
    if (fn) fn();
    return 0;
  }
  const RootedWaitId id = next_rooted_wait_++;
  rooted_waits_.emplace(id, RootedWait{slot, std::move(fn)});
  return id;
}

void Chain::cancel_rooted(RootedWaitId id) {
  if (id != 0) rooted_waits_.erase(id);
}

void Chain::deliver_rooted() {
  const std::uint64_t target = rooted_slot();
  // Index loop: a handler may add subscriptions, invalidating
  // references into rooted_subs_.
  for (std::size_t i = 0; i < rooted_subs_.size(); ++i) {
    if (rooted_subs_[i].cursor > target) continue;
    for (auto it = journal_.lower_bound(rooted_subs_[i].cursor);
         it != journal_.end() && it->first <= target; ++it)
      for (const JournalTx& jt : it->second)
        for (const Event& ev : jt.events)
          if (ev.program == rooted_subs_[i].program) rooted_subs_[i].handler(ev);
    rooted_subs_[i].cursor = target + 1;
  }
}

void Chain::fire_rooted_waits() {
  const std::uint64_t rooted = rooted_slot();
  // Two passes: a fired handler may register or cancel other waits, so
  // collect matured ids first and re-look each up before firing.
  std::vector<RootedWaitId> due;
  for (const auto& [id, wait] : rooted_waits_)
    if (wait.slot <= rooted) due.push_back(id);
  for (const RootedWaitId id : due) {
    const auto it = rooted_waits_.find(id);
    if (it == rooted_waits_.end()) continue;  // cancelled by an earlier handler
    auto fn = std::move(it->second.fn);
    rooted_waits_.erase(it);
    if (fn) fn();
  }
}

void Chain::maybe_trigger_reorg() {
  const double now = sim_.now();
  const double p = cfg_.fault.reorg_probability(now);
  // No draw outside active windows: the reorg stream advances only
  // where the plan says forks can happen.
  if (p <= 0.0 || !reorg_rng_.chance(p)) return;
  const std::uint64_t max_depth = cfg_.fault.reorg_max_depth(now);
  if (max_depth == 0) return;
  std::uint64_t depth = 1 + reorg_rng_.uniform_int(max_depth);
  // Only the unrooted strict past [rooted+1, slot_-1] is reorgable.
  const std::uint64_t rooted = rooted_slot();
  const std::uint64_t reorgable = slot_ - 1 > rooted ? slot_ - 1 - rooted : 0;
  depth = std::min(depth, reorgable);
  if (depth == 0) return;
  perform_reorg(depth);
}

void Chain::perform_reorg(std::uint64_t depth) {
  const std::uint64_t first_retracted = slot_ - depth;  // retract [first_retracted, slot_-1]
  const double now = sim_.now();

  // 1. Rooted subscribers need no repair: a reorg reaches only unrooted
  // slots, and a rooted cursor never passes rooted_slot() + 1, so it
  // never passes first_retracted.

  // 2. New fork epoch.
  ++fork_epoch_;
  ++fault_counters_.reorgs_triggered;
  fault_counters_.slots_rolled_back += depth;

  // 3. Pull the retracted suffix out of the journal.
  std::vector<std::pair<std::uint64_t, std::vector<JournalTx>>> retracted;
  for (auto it = journal_.lower_bound(first_retracted); it != journal_.end();) {
    retracted.emplace_back(it->first, std::move(it->second));
    it = journal_.erase(it);
  }

  // 4. Rewind the ledger and every program to the checkpoint, taken at
  // a rooted slot C no reorg can reach.
  rollback_to_checkpoint();

  // 5. Silent replay of the surviving journal.  (C, R] brings the state
  // to the newest rooted slot R, where the checkpoint moves forward and
  // the journal behind it is pruned; (R, first_retracted) then rebuilds
  // the unrooted prefix the winning fork extends.  A reorg thus replays
  // the slots rooted since the previous one plus fewer than
  // rooted_lag_slots more, which keeps a run's replay linear in
  // simulated time.
  const std::uint64_t rooted = rooted_slot();
  replay_journal(checkpoint_.slot + 1, rooted);
  take_checkpoint(rooted);
  prune_journal();
  replay_journal(rooted + 1, first_retracted - 1);

  // 6. Winning fork: per-tx survival draw; survivors re-execute
  // visibly at their original coordinates (their events and result
  // handlers fire again — consumers are stale-guarded), deaths notify
  // their submitters once with reorged_out set.
  for (auto& [s, txs] : retracted) {
    for (JournalTx& jt : txs) {
      const double survival = cfg_.fault.reorg_survival(now, jt.tx.label);
      const bool survives = survival >= 1.0 || reorg_rng_.chance(survival);
      if (survives) {
        ++fault_counters_.txs_replayed;
        PendingTx ptx{std::move(jt.tx), std::move(jt.on_result), UINT64_MAX};
        (void)execute_tx_at(ptx, jt.result.slot, jt.result.time,
                            ExecMode::kVisibleReplay, jt.sig_ok);
      } else {
        ++fault_counters_.txs_reorged_out;
        TxResult res = jt.result;
        res.reorged_out = true;
        if (jt.on_result) jt.on_result(res);
      }
    }
  }
}

void Chain::take_checkpoint(std::uint64_t slot) {
  checkpoint_.slot = slot;
  checkpoint_.balances = balances_;
  checkpoint_.rent_deposits = rent_deposits_;
  checkpoint_.payer_stats = payer_stats_;
  checkpoint_.executed = executed_;
  checkpoint_.failed = failed_;
  checkpoint_.fee_spiked = fault_counters_.fee_spiked;
  for (auto& [name, prog] : programs_) prog->fork_checkpoint();
}

void Chain::rollback_to_checkpoint() {
  // Moved, not copied: perform_reorg re-checkpoints before the next
  // rollback can happen.
  balances_ = std::move(checkpoint_.balances);
  rent_deposits_ = std::move(checkpoint_.rent_deposits);
  payer_stats_ = std::move(checkpoint_.payer_stats);
  executed_ = checkpoint_.executed;
  failed_ = checkpoint_.failed;
  fault_counters_.fee_spiked = checkpoint_.fee_spiked;
  for (auto& [name, prog] : programs_) prog->fork_rollback();
}

void Chain::replay_journal(std::uint64_t first, std::uint64_t last) {
  // Identical inputs against identical state must reproduce the
  // journalled outcome; any divergence means the rollback itself is
  // broken, so fail loud.
  for (auto it = journal_.lower_bound(first); it != journal_.end() && it->first <= last;
       ++it) {
    for (const JournalTx& jt : it->second) {
      PendingTx ptx{jt.tx, {}, UINT64_MAX};
      const TxResult r = execute_tx_at(ptx, jt.result.slot, jt.result.time,
                                       ExecMode::kSilentReplay, jt.sig_ok);
      if (r.success != jt.result.success || r.cu_used != jt.result.cu_used)
        throw std::logic_error("chain: fork replay diverged from journal at slot " +
                               std::to_string(it->first));
    }
  }
}

void Chain::prune_journal() {
  // Nothing at or behind the checkpoint is replayed again; an entry
  // survives only while some rooted subscriber's cursor has not
  // passed it.
  std::uint64_t keep_from = checkpoint_.slot + 1;
  for (const RootedSub& sub : rooted_subs_) keep_from = std::min(keep_from, sub.cursor);
  journal_.erase(journal_.begin(), journal_.lower_bound(keep_from));
}

const Chain::PayerStats& Chain::payer_stats(const crypto::PublicKey& who) const {
  static const PayerStats kEmpty{};
  const auto it = payer_stats_.find(who);
  return it == payer_stats_.end() ? kEmpty : it->second;
}

}  // namespace bmg::host
