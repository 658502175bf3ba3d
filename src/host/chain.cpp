#include "host/chain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

namespace bmg::host {

namespace {
/// Seed of the dedicated RNG stream for reorg trigger/depth/survival
/// draws, so arming forks never perturbs the inclusion or fault streams.
constexpr std::uint64_t kReorgSeed = 0x4E0'26F0'5CA1'D21Bull;
constexpr const char* kExpiredError = "transaction expired (blockhash too old)";
}  // namespace

void TxContext::emit_event(std::string name, Bytes data) {
  chain_.tx_event_buffer_.push_back(
      Event{slot_, time_, /*program=*/"", std::move(name), std::move(data)});
}

UndoRecorder* TxContext::undo() const noexcept {
  return chain_.fork_mode_ ? &chain_.undo_ : nullptr;
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
  ledger_.balances[who] += lamports;
}

std::uint64_t Chain::balance(const crypto::PublicKey& who) const {
  const auto it = ledger_.balances.find(who);
  return it == ledger_.balances.end() ? 0 : it->second;
}

void Chain::start() {
  if (started_) return;
  fork_mode_ = armed();
  started_ = true;
  if (fork_mode_) {
    // Every registered program must record its writes before the
    // first transaction executes; arming mid-run is not supported.
    for (auto& [name, prog] : programs_) {
      if (!prog->fork_supported())
        throw std::runtime_error("chain: program '" + name +
                                 "' does not support fork mode "
                                 "(fork_supported() == false)");
    }
  }
  clock_ = {0, sim_.now()};
  schedule_next();
}

Chain::Boundary Chain::passed() const {
  if (started_)
    for (Boundary b = next(clock_); b.time <= sim_.now(); b = next(b)) clock_ = b;
  return clock_;
}

double Chain::boundary_at_or_after(double t) const {
  if (!started_) return std::numeric_limits<double>::infinity();
  Boundary b = passed();
  while (b.time < t) b = next(b);
  return b.time;
}

void Chain::wake_at(double t) {
  if (fork_mode_ || !started_) return;
  t = std::max(t, sim_.now());
  Boundary b = passed();
  if (b.slot == slot_) b = next(b);  // produced already
  while (b.time < t) b = next(b);
  pending_.try_emplace(b.slot);
  schedule_slot(b.slot);
}

void Chain::on_slot_end(std::function<void()> fn) { slot_end_hooks_.push_back(std::move(fn)); }

void Chain::schedule_next() {
  if (fork_mode_)
    schedule_slot(slot_ + 1);
  else if (!pending_.empty())
    schedule_slot(pending_.begin()->first);
}

void Chain::schedule_slot(std::uint64_t k) {
  if (!started_ || in_slot_ || (next_slot_ != 0 && next_slot_ <= k)) return;
  next_slot_ = k;
  // One event per slot: on_slot runs the slot-end hooks itself.
  const auto queue = [this, gen = ++slot_gen_](double t) {
    sim_.at(t, [this, gen] {
      if (gen == slot_gen_) on_slot(next_slot_);
    });
  };
  const Boundary now = passed();
  if (k <= now.slot + 1) {  // the next boundary, or a wake's at now()
    queue(k == now.slot ? now.time : next(now).time);
    return;
  }
  // Slot k-1 is idle.  Had it been produced, it would have queued slot
  // k at its own boundary, after every event queued for that instant
  // so far: an arm event there keeps slot k in that place among the
  // events of its own instant (DESIGN §8).
  std::optional<double>& arm = pending_[k].arm_time;
  if (!arm) {
    Boundary b = now;
    while (b.slot + 1 < k) b = next(b);
    arm = b.time;
  }
  sim_.at(*arm, [this, gen = slot_gen_, queue, t = *arm + cfg_.slot_seconds] {
    if (gen == slot_gen_) queue(t);
  });
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
    report_unexecuted(std::move(on_result), tx.label,
                      "transaction too large (" + std::to_string(tx.wire_size()) + " > " +
                          std::to_string(cfg_.max_tx_size) + " bytes)",
                      sim_.now());
    return;
  }

  // Fault randomness never perturbs the inclusion stream: a plan with
  // chain faults draws everything from fault_rng_, any other from rng_.
  const bool faults = cfg_.fault.has_chain_faults();
  Rng& rng = faults ? fault_rng_ : rng_;
  const double now = sim_.now();

  // Blackhole: the tx vanishes between the submitter and the cluster;
  // no result handler ever fires.  This is what forces real timeout
  // handling in the relayer pipeline.
  const double p_bh = cfg_.fault.blackhole_probability(now, tx.label);
  if (p_bh > 0 && fault_rng_.chance(p_bh)) {
    ++fault_counters_.blackholed;
    return;
  }

  // Per-slot inclusion scan from the first slot at which the tx is
  // visible to block producers until its blockhash expires.  Each slot
  // draws with the fee policy's probability, times the congestion
  // multiplier active at that slot's wall time; outage slots include
  // nothing.
  const double p0 = inclusion_probability(tx.fee);
  const auto first_slot = static_cast<std::uint64_t>(
      std::ceil((now + kMempoolLatencySeconds) / cfg_.slot_seconds));
  const std::uint64_t expiry_slot = first_slot + kTxExpirySlots;
  std::uint64_t chosen = 0;  // slot 0 is never produced: 0 = not included
  bool congested = false;
  bool waited_out_outage = false;
  for (std::uint64_t s = std::max(first_slot, slot() + 1); s <= expiry_slot; ++s) {
    double m = 1.0;
    if (faults) {
      const double t = static_cast<double>(s) * cfg_.slot_seconds;
      if (cfg_.fault.in_outage(t)) {
        waited_out_outage = true;
        continue;
      }
      m = cfg_.fault.congestion_multiplier(t, tx.label);
    }
    const double p = std::min(p0 * m, 1.0);
    // Under faults a slot nothing can land in is skipped undrawn; the
    // fault-free stream draws at every slot, even at p = 0.
    if (faults && p <= 0) {
      congested = true;
      continue;
    }
    if (rng.chance(p)) {
      chosen = s;
      break;
    }
    if (m < 1.0) congested = true;
  }
  if (congested) ++fault_counters_.congestion_delayed;
  if (waited_out_outage) ++fault_counters_.outage_deferred;

  if (chosen == 0) {
    // One draw past the window (153 for 152 slots) on the fault-free
    // stream: the geometric delay this scan replaced took it, and every
    // fault-free transcript pinned since depends on it.
    if (!faults) (void)rng_.chance(p0);
    ++dropped_;
    if (waited_out_outage) ++fault_counters_.outage_expired;
    report_unexecuted(std::move(on_result), std::move(tx.label), kExpiredError,
                      static_cast<double>(expiry_slot) * cfg_.slot_seconds);
    return;
  }

  // Duplicate fault: a ghost replay lands one slot later with no
  // handler — the program must tolerate the second execution.
  const double p_dup = cfg_.fault.duplicate_probability(now, tx.label);
  if (p_dup > 0 && fault_rng_.chance(p_dup)) {
    ++fault_counters_.duplicated;
    pending_[chosen + 1].txs.push_back(PendingTx{tx, {}, expiry_slot});
  }

  pending_[chosen].txs.push_back(PendingTx{std::move(tx), std::move(on_result), expiry_slot});
  schedule_slot(chosen);
}

void Chain::on_slot(std::uint64_t k) {
  slot_ = k;
  clock_ = {k, sim_.now()};
  next_slot_ = 0;
  in_slot_ = true;
  if (fork_mode_) maybe_trigger_reorg();

  const auto it = pending_.find(slot_);
  if (it != pending_.end()) {
    std::vector<PendingTx> batch = std::move(it->second.txs);
    pending_.erase(it);
    // An outage slot is produced but includes nothing: its transactions
    // wait for the next slot unless their blockhash aged out.
    const bool outage = cfg_.fault.has_chain_faults() && cfg_.fault.in_outage(sim_.now());
    if (!outage) {
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
    }

    std::uint64_t block_cu = 0;
    for (auto& ptx : batch) {
      if (outage && slot_ >= ptx.expiry_slot) {
        ++fault_counters_.outage_expired;
        ++dropped_;
        report_unexecuted(std::move(ptx.on_result), std::move(ptx.tx.label), kExpiredError,
                          sim_.now());
      } else if (outage || block_cu >= cfg_.block_compute_units) {
        // Outage or full block: spill to the next slot.
        if (outage) ++fault_counters_.outage_deferred;
        pending_[slot_ + 1].txs.push_back(std::move(ptx));
      } else {
        execute_tx_at(ptx, slot_, sim_.now());
        block_cu += cfg_.max_compute_units;  // conservative per-tx reservation
      }
    }
  }

  if (fork_mode_) {
    deliver_rooted();
    fire_rooted_waits();
    prune_rooted();
  }
  in_slot_ = false;
  schedule_next();
  // Index loop: a hook may register another.
  for (std::size_t i = 0; i < slot_end_hooks_.size(); ++i) slot_end_hooks_[i]();
}

void Chain::report_unexecuted(ResultHandler on_result, std::string label, std::string error,
                              double when) {
  if (!on_result) return;
  TxResult res;
  res.label = std::move(label);
  res.error = std::move(error);
  sim_.at(when, [on_result = std::move(on_result), res = std::move(res)] { on_result(res); });
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

void Chain::execute_tx_at(PendingTx& ptx, std::uint64_t slot, double time,
                          std::optional<bool> journaled_sig_ok) {
  const Transaction& tx = ptx.tx;
  TxResult res;
  res.executed = true;
  res.slot = slot;
  res.time = time;
  res.label = tx.label;

  tx_event_buffer_.clear();
  tx_transfer_buffer_.clear();
  if (fork_mode_) undo_.open(undo_logs_[slot], slot);

  TxContext ctx(*this, tx, slot, time, cfg_.max_compute_units);
  std::string touched_program;
  bool sig_ok = true;
  try {
    // Ed25519 pre-compile runs before the programs.  All signatures of
    // a transaction are checked as one batch (real runtimes verify the
    // whole packet's signatures up front, too).  A re-execution charges
    // the same compute but reuses the journalled verdict — the bytes
    // are unchanged, so re-verifying would only burn wall clock.
    ctx.consume_cu(kCuEd25519PerSig * tx.sig_verifies.size());
    if (!tx.sig_verifies.empty()) {
      if (!journaled_sig_ok) {
        std::vector<crypto::ed25519::VerifyItem> items;
        items.reserve(tx.sig_verifies.size());
        for (const auto& sv : tx.sig_verifies)
          items.push_back({sv.pubkey.raw(), sv.message.view(), sv.signature.raw()});
        for (const bool good : crypto::ed25519::verify_batch(items))
          if (!good) sig_ok = false;
      } else {
        sig_ok = *journaled_sig_ok;
      }
      if (!sig_ok) throw TxError("ed25519 pre-compile: invalid signature");
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
    // Re-executions evaluate the multiplier at the original execution
    // time, reproducing the journalled charge exactly.
    const double m = cfg_.fault.fee_multiplier(time);
    if (m != 1.0 && (res.fee.priority_lamports > 0 || res.fee.tip_lamports > 0)) {
      res.fee.priority_lamports =
          static_cast<std::uint64_t>(static_cast<double>(res.fee.priority_lamports) * m);
      res.fee.tip_lamports =
          static_cast<std::uint64_t>(static_cast<double>(res.fee.tip_lamports) * m);
      add_delta(&undo_, fault_counters_.fee_spiked, 1);
    }
  }

  // Charge fees (saturating — a payer going broke is an operator
  // problem, not a simulator crash), then apply buffered transfers.
  // The ledger records deltas, so a credit made outside any transaction
  // (an airdrop) survives a reorg.
  auto& bal = ledger_.balances[tx.payer];
  add_delta(&undo_, bal, 0 - std::min(bal, res.fee.total()));
  auto& stats = ledger_.payer_stats[tx.payer];
  add_delta(&undo_, stats.fees_lamports, res.fee.total());
  add_delta(&undo_, stats.tx_count, 1);
  add_delta(&undo_, stats.sig_count, 1 + tx.sig_verifies.size());
  add_delta(&undo_, res.success ? ledger_.executed : ledger_.failed, 1);
  if (res.success) {
    for (const auto& [from, to, amount] : tx_transfer_buffer_) {
      auto& src = ledger_.balances[from];
      const std::uint64_t moved = std::min(src, amount);
      add_delta(&undo_, src, 0 - moved);
      add_delta(&undo_, ledger_.balances[to], moved);
    }
  }
  tx_transfer_buffer_.clear();
  undo_.close();

  // Flush events to subscribers, then notify the submitter.
  std::vector<Event> events;
  if (res.success) {
    events = std::move(tx_event_buffer_);
    for (Event& ev : events) ev.program = touched_program;
    for (const Event& ev : events) {
      const auto sub = subscribers_.find(ev.program);
      if (sub != subscribers_.end())
        for (const auto& handler : sub->second) handler(ev);
    }
  }
  tx_event_buffer_.clear();
  if (ptx.on_result) ptx.on_result(res);

  // Journal the execution for re-execution and rooted delivery.
  if (fork_mode_)
    journal_[slot].push_back(JournalTx{std::move(ptx.tx), std::move(ptx.on_result),
                                       res, std::move(events), sig_ok});
}

void Chain::subscribe(const std::string& program, EventHandler handler) {
  subscribers_[program].push_back(std::move(handler));
}

void Chain::subscribe_rooted(const std::string& program, EventHandler handler) {
  if (!armed()) {
    subscribers_[program].push_back(std::move(handler));
    return;
  }
  // No history replay on subscribe.
  rooted_subs_.push_back(RootedSub{program, std::move(handler), rooted_slot() + 1});
}

Chain::RootedWaitId Chain::when_rooted(std::uint64_t slot, std::function<void()> fn) {
  if (!armed() || slot <= rooted_slot()) {
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

  // 4. Unwind the retracted slots' undo logs, newest first: the ledger
  // and every program are back at the end of slot first_retracted - 1.
  const auto keep = undo_logs_.lower_bound(first_retracted);
  for (auto it = undo_logs_.end(); it != keep;) (--it)->second.unwind();
  undo_logs_.erase(keep, undo_logs_.end());

  // 5. Winning fork: per-tx survival draw; survivors re-execute
  // visibly at their original coordinates, recording into their
  // original slots' logs (their events and result handlers fire again
  // — consumers are stale-guarded), deaths notify their submitters
  // once with reorged_out set.
  for (auto& [s, txs] : retracted) {
    for (JournalTx& jt : txs) {
      const double survival = cfg_.fault.reorg_survival(now, jt.tx.label);
      const bool survives = survival >= 1.0 || reorg_rng_.chance(survival);
      if (survives) {
        ++fault_counters_.txs_replayed;
        PendingTx ptx{std::move(jt.tx), std::move(jt.on_result), UINT64_MAX};
        execute_tx_at(ptx, jt.result.slot, jt.result.time, jt.sig_ok);
      } else {
        ++fault_counters_.txs_reorged_out;
        TxResult res = jt.result;
        res.reorged_out = true;
        if (jt.on_result) jt.on_result(res);
      }
    }
  }
}

void Chain::prune_rooted() {
  // No reorg reaches a rooted slot; a journal entry survives only while
  // some rooted subscriber's cursor has not passed it.
  const std::uint64_t rooted = rooted_slot();
  undo_logs_.erase(undo_logs_.begin(), undo_logs_.upper_bound(rooted));
  std::uint64_t keep_from = rooted + 1;
  for (const RootedSub& sub : rooted_subs_) keep_from = std::min(keep_from, sub.cursor);
  journal_.erase(journal_.begin(), journal_.lower_bound(keep_from));
}

const Chain::PayerStats& Chain::payer_stats(const crypto::PublicKey& who) const {
  static const PayerStats kEmpty{};
  const auto it = ledger_.payer_stats.find(who);
  return it == ledger_.payer_stats.end() ? kEmpty : it->second;
}

}  // namespace bmg::host
