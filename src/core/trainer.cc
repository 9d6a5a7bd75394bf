#include "src/core/trainer.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/ckpt/async_writer.h"
#include "src/ckpt/state_dict.h"
#include "src/ckpt/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/tensor/serialize.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

// The bootstrapping stage ends when the training loss's change rate drops
// below this (paper S4.2.2: "permissively set to 10%").
constexpr double kBootstrapChangeRate = 0.10;

// The feature store's byte budget. The store holds a frozen boundary for every
// sample the loader draws from in one host-memory table (S4.3's "recent five
// mini-batches" are the device-side window of a GPU trainer; this trainer's
// serving tier is host memory). A table past the budget is refused and the
// prefix recomputed. The largest shipped table, ResNet-50's, is 3.0 MiB.
constexpr int64_t kFeatureStoreBudgetBytes = int64_t{256} << 20;

constexpr uint32_t kTrainerStateMagic = 0x52544745;  // 'EGTR'
constexpr uint32_t kTrainerStateVersion = 2;  // iter/frontier: the manifest's

// Per-replica buffer section (BatchNorm running statistics): never
// synchronized by training, so every rank persists its own.
std::string BuffersFileName(int rank) {
  return "buffers_r" + std::to_string(rank) + ".state";
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(os);
}

}  // namespace

// Propagates a transport error out of the loop as a value: a dead, hung or
// corrupting peer surfaces to the caller, never as an abort.
#define EGERIA_RETURN_IF_ERROR(expr) \
  do {                               \
    TransportStatus st_ = (expr);    \
    if (!st_.ok()) {                 \
      return st_;                    \
    }                                \
  } while (0)

std::unique_ptr<Optimizer> MakeOptimizer(const TrainConfig& cfg) {
  if (cfg.optimizer == TrainConfig::Optim::kSgd) {
    return std::make_unique<Sgd>(cfg.momentum, cfg.weight_decay);
  }
  return std::make_unique<Adam>(0.9F, 0.999F, 1e-8F, cfg.weight_decay);
}

Trainer::Trainer(ChainModel& model, const Dataset& train_data, const Dataset& val_data,
                 TrainConfig cfg, GradientSync* sync)
    : model_(model),
      train_data_(train_data),
      val_data_(val_data),
      cfg_(std::move(cfg)),
      loader_(train_data_, cfg_.batch_size, /*shuffle=*/true, cfg_.seed,
              cfg_.train_samples_limit),
      val_loader_(val_data_, cfg_.batch_size, /*shuffle=*/false, cfg_.seed + 1),
      sync_(sync) {
  EGERIA_CHECK_MSG(cfg_.lr_schedule != nullptr, "TrainConfig.lr_schedule is required");
  if (sync_ == nullptr) {
    owned_sync_ = std::make_unique<LocalSync>(MakeOptimizer(cfg_));
    sync_ = owned_sync_.get();
  }
  EGERIA_CHECK_MSG(IterationsPerEpoch() >= 1, "dataset too small for this world size");
  if (cfg_.enable_egeria) {
    if (sync_->Rank() == 0) {
      controller_ = std::make_unique<EgeriaController>(cfg_.egeria, model_.NumStages(),
                                                       cfg_.lr_schedule->IsAnnealing());
    }
    if (cfg_.egeria.enable_cache) {
      cache_ = std::make_unique<ActivationCache>(loader_.num_samples(),
                                                 kFeatureStoreBudgetBytes);
    }
  }
  if (cfg_.ckpt.enabled() && cfg_.ckpt.async_save) {
    ckpt_writer_ = std::make_unique<AsyncCheckpointWriter>();
  }
}

Trainer::~Trainer() = default;

int64_t Trainer::IterationsPerEpoch() const { return loader_.NumBatches() / sync_->World(); }

int64_t Trainer::TotalIterations() const {
  return IterationsPerEpoch() * static_cast<int64_t>(cfg_.epochs);
}

Tensor Trainer::FrontierActivation() const { return model_.StageOutput(frontier_); }

uint64_t Trainer::FrozenPrefixHash() {
  uint64_t h = kFnv64Offset;
  for (int i = 0; i < frontier_; ++i) {
    for (Parameter* p : model_.StageParams(i)) {
      h = Fnv1a64(p->value.Data(),
                  static_cast<size_t>(p->value.NumEl()) * sizeof(float), h);
    }
  }
  return h;
}

uint64_t Trainer::CacheGeneration() const {
  return Fnv1a64(&aug_signature_, sizeof(aug_signature_), frozen_prefix_hash_);
}

void Trainer::SetFrontier(int frontier) {
  for (int i = 0; i < model_.NumStages(); ++i) {
    model_.SetStageFrozen(i, i < frontier);
  }
  frontier_ = frontier;
  frozen_prefix_hash_ = FrozenPrefixHash();
}

void Trainer::FreezeUpTo(int stage, int64_t iter) {
  EGERIA_CHECK(stage >= 0 && stage < model_.NumStages() - 1);
  const int old_frontier = frontier_;
  SetFrontier(stage + 1);
  if (frontier_observer_ && frontier_ != old_frontier) {
    frontier_observer_(old_frontier, frontier_, iter);
  }
  result_.freeze_events.push_back({iter, static_cast<int>(iter / IterationsPerEpoch()),
                                   /*unfreeze=*/false, frontier_});
  if (cfg_.verbose) {
    EGERIA_LOG(kInfo) << "iter " << iter << ": froze stages [0," << stage
                      << "], frontier=" << frontier_;
  }
}

void Trainer::UnfreezeAll(int64_t iter) {
  const int old_frontier = frontier_;
  SetFrontier(0);
  if (frontier_observer_ && old_frontier != 0) {
    frontier_observer_(old_frontier, 0, iter);
  }
  if (cache_ != nullptr) {
    cache_->Clear();  // Prefix weights will change; cached activations are stale.
  }
  result_.freeze_events.push_back({iter, static_cast<int>(iter / IterationsPerEpoch()),
                                   /*unfreeze=*/true, 0});
  if (cfg_.verbose) {
    EGERIA_LOG(kInfo) << "iter " << iter << ": unfroze all layers";
  }
}

void Trainer::ApplyDecision(const FreezeDecision& d) {
  if (d.kind == FreezeDecision::Kind::kFreezeUpTo) {
    FreezeUpTo(d.stage, d.iter);
  } else {
    UnfreezeAll(d.iter);
  }
}

void Trainer::MoveFrontier(int frontier, int64_t iter) {
  if (frontier < frontier_) {
    UnfreezeAll(iter);
  }
  if (frontier > frontier_) {
    FreezeUpTo(frontier - 1, iter);
  }
}

TransportStatus Trainer::SyncFrontier(int64_t first_iter) {
  if (frontier_ == sync_frontier_) {
    return TransportStatus::Ok();
  }
  TransportStatus st = sync_->Repartition(model_, sync_frontier_, frontier_, first_iter);
  if (st.ok()) {
    sync_frontier_ = frontier_;
  }
  return st;
}

void Trainer::MaybeSubmitEval(const Batch& batch, float lr, int64_t iter) {
  if (controller_ == nullptr || !knowledge_stage_) {
    return;
  }
  if (iter % cfg_.egeria.eval_interval_n != 0) {
    return;
  }
  if (frontier_ >= model_.NumStages() - 1 - cfg_.egeria.protected_tail + 1) {
    return;  // Nothing left that may freeze.
  }
  EvalRequest req;
  req.batch = batch;
  req.train_act = model_.StageOutput(frontier_);
  req.stage = frontier_;
  req.lr = lr;
  req.iter = iter;
  controller_->SubmitEval(std::move(req));
  ++result_.evals_submitted;
}

void Trainer::UpdateBootstrap(double loss, int64_t iter) {
  // Change rate of the window-averaged training loss, sampled every n iterations
  // (paper: permissively 10%). Entering the knowledge-guided stage triggers the
  // first reference snapshot.
  bootstrap_window_sum_ += loss;
  ++bootstrap_window_count_;
  if (cfg_.egeria.max_bootstrap_iters >= 0 && iter >= cfg_.egeria.max_bootstrap_iters) {
    knowledge_stage_ = true;
    result_.bootstrap_end_iter = iter;
    return;
  }
  if (iter % cfg_.egeria.eval_interval_n != 0) {
    return;
  }
  const double avg = bootstrap_window_sum_ / static_cast<double>(bootstrap_window_count_);
  bootstrap_window_sum_ = 0.0;
  bootstrap_window_count_ = 0;
  if (bootstrap_prev_avg_ > 0.0) {
    const double rate = std::abs(bootstrap_prev_avg_ - avg) / bootstrap_prev_avg_;
    if (rate < kBootstrapChangeRate) {
      knowledge_stage_ = true;
      result_.bootstrap_end_iter = iter;
      if (cfg_.verbose) {
        EGERIA_LOG(kInfo) << "bootstrapping stage ended at iter " << iter;
      }
    }
  }
  bootstrap_prev_avg_ = avg;
}

void Trainer::CaptureCheckpoint(int64_t iter) {
  // Capture leg of capture->write->commit: the clone the background writer
  // serializes. Its span sits on the training track; the write span it hands
  // off shows up on the ckpt_writer track, overlapping the next iterations.
  obs::ScopedPhase capture_phase("ckpt", "capture",
                                 &obs::GetHistogram("ckpt.capture_s"));
  const int rank = sync_->Rank();
  const std::string step_dir = CheckpointStepDir(cfg_.ckpt.dir, iter);
  bool ok = EnsureDir(step_dir);
  // Clone the snapshot: the background writer must never read live state.
  Checkpoint buffers = ExportModelBuffers(model_);
  Checkpoint state;
  std::string cursors;
  std::string controller_bytes;
  if (rank == 0) {
    state = ExportModelState(model_);
    std::ostringstream os(std::ios::binary);
    wire::Write(os, kTrainerStateMagic);
    wire::Write(os, kTrainerStateVersion);
    wire::Write(os, static_cast<uint8_t>(knowledge_stage_ ? 1 : 0));
    wire::Write(os, bootstrap_prev_avg_);
    wire::Write(os, bootstrap_window_sum_);
    wire::Write(os, bootstrap_window_count_);
    wire::Write(os, result_.bootstrap_end_iter);
    cursors = os.str();
    if (controller_ != nullptr) {
      std::ostringstream cs(std::ios::binary);
      controller_->SaveState(cs);
      ok = ok && static_cast<bool>(cs);
      controller_bytes = cs.str();
    }
    ckpt_manifest_ = CkptManifest{};
    ckpt_manifest_.iter = iter;
    ckpt_manifest_.world = sync_->World();
    ckpt_manifest_.frontier = frontier_;
    ckpt_manifest_.dir = step_dir;
  }
  auto write_sync_state = sync_->CaptureState(model_, rank == 0 ? &state : nullptr);
  auto write = [rank, step_dir, buffers = std::move(buffers), state = std::move(state),
                cursors = std::move(cursors), controller_bytes = std::move(controller_bytes),
                has_controller = controller_ != nullptr,
                write_sync_state = std::move(write_sync_state)]() -> bool {
    bool wok = SaveCheckpoint(step_dir + "/" + BuffersFileName(rank), buffers);
    if (write_sync_state) {
      wok = wok && write_sync_state(step_dir);
    }
    if (rank == 0) {
      wok = wok && SaveCheckpoint(step_dir + "/model.state", state) &&
            WriteFile(step_dir + "/trainer.state", cursors);
      if (has_controller) {
        wok = wok && WriteFile(step_dir + "/controller.state", controller_bytes);
      }
    }
    return wok;
  };
  ckpt_capture_ok_ = ok;
  if (ckpt_writer_ != nullptr) {
    ckpt_writer_->Submit(std::move(write));
  } else {
    ckpt_capture_ok_ = ok && write();
  }
  ckpt_pending_ = true;
}

TransportStatus Trainer::CommitCheckpoint() {
  obs::ScopedPhase commit_phase("ckpt", "commit", &obs::GetHistogram("ckpt.commit_s"));
  ckpt_pending_ = false;
  bool local_ok = ckpt_capture_ok_;
  if (ckpt_writer_ != nullptr) {
    local_ok = ckpt_writer_->Wait() && local_ok;
  }
  int failing_rank = -1;
  EGERIA_RETURN_IF_ERROR(sync_->ReduceFailingRank(local_ok, &failing_rank));
  if (sync_->Rank() == 0) {
    CkptManifest m = ckpt_manifest_;
    if (failing_rank >= 0) {
      EGERIA_LOG(kError) << "checkpoint at iter " << m.iter << ": rank " << failing_rank
                         << " failed writing its files; step abandoned (training "
                            "continues from the previous checkpoint)";
    } else {
      bool ok = AddManifestFile(m, "model.state") && AddManifestFile(m, "trainer.state");
      if (ok && controller_ != nullptr) {
        ok = AddManifestFile(m, "controller.state");
      }
      for (int r = 0; r < m.world && ok; ++r) {
        ok = AddManifestFile(m, BuffersFileName(r));
        const std::string rank_file = sync_->RankStateFile(r);
        if (ok && !rank_file.empty()) {
          ok = AddManifestFile(m, rank_file);
        }
      }
      if (!ok || !CommitManifest(m)) {
        EGERIA_LOG(kError) << "checkpoint at iter " << m.iter
                           << " failed; training continues uncheckpointed";
      } else {
        ApplyRetention(cfg_.ckpt.dir, cfg_.ckpt.keep_last);
        if (cfg_.verbose) {
          EGERIA_LOG(kInfo) << "checkpointed iter " << m.iter << " -> " << m.dir;
        }
      }
    }
  }
  // Every rank leaves knowing the step's fate before anyone can crash ahead,
  // so "latest complete checkpoint" is well-defined for the whole world.
  return sync_->Barrier();
}

TransportStatus Trainer::TryResume(int64_t* resumed_iter) {
  *resumed_iter = -1;
  // Rank 0 picks the step and broadcasts it, so every rank restores the same
  // one even if retention or a concurrent writer could race a per-rank scan.
  int64_t found = -1;
  if (sync_->Rank() == 0) {
    if (const auto m = FindLatestCheckpoint(cfg_.ckpt.dir)) {
      found = m->iter;
    }
  }
  EGERIA_RETURN_IF_ERROR(sync_->Broadcast(&found));
  if (found < 0) {
    return TransportStatus::Ok();
  }
  const std::string step_dir = CheckpointStepDir(cfg_.ckpt.dir, found);
  const auto m = ReadManifest(step_dir);
  // The restore mutates live state (model weights first), so every failure
  // is fatal: a "fresh" run from half-restored weights would be silently
  // wrong. These fire only when the checkpoint does not match the configured
  // model/optimizer — an operator error worth stopping on.
  EGERIA_CHECK_MSG(m.has_value(), "resume checkpoint vanished: " + step_dir);
  EGERIA_CHECK_MSG(m->frontier >= 0 && m->frontier < model_.NumStages(),
                   step_dir + ": frontier does not fit this model");
  Checkpoint state;
  EGERIA_CHECK_MSG(LoadCheckpoint(step_dir + "/model.state", state) &&
                       LoadModelState(state, model_),
                   step_dir + ": checkpoint does not match this model architecture");
  // Buffers (BatchNorm running stats) are per-replica: restore this rank's
  // own section over the rank-0 copy model.state carries. An elastic restart
  // maps new ranks onto saved replicas round-robin — buffers have no
  // world-invariant owner.
  Checkpoint buffers;
  EGERIA_CHECK_MSG(
      LoadCheckpoint(step_dir + "/" + BuffersFileName(sync_->Rank() % m->world), buffers) &&
          LoadModelBuffers(buffers, model_),
      step_dir + ": replica buffer restore failed");

  std::ifstream is(step_dir + "/trainer.state", std::ios::binary);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint8_t knowledge_stage = 0;
  EGERIA_CHECK_MSG(wire::Read(is, magic) && magic == kTrainerStateMagic &&
                       wire::Read(is, version) && version == kTrainerStateVersion &&
                       wire::Read(is, knowledge_stage) &&
                       wire::Read(is, bootstrap_prev_avg_) &&
                       wire::Read(is, bootstrap_window_sum_) &&
                       wire::Read(is, bootstrap_window_count_) &&
                       wire::Read(is, result_.bootstrap_end_iter),
                   step_dir + ": malformed trainer.state");
  knowledge_stage_ = knowledge_stage != 0;
  // Restored weights, same prefix => same prefix hash as the interrupted run.
  // The feature store starts empty and repopulates under that generation.
  SetFrontier(m->frontier);
  EGERIA_CHECK_MSG(sync_->RestoreState(model_, state, *m),
                   step_dir + ": optimizer state does not match this configuration");
  sync_frontier_ = frontier_;

  if (controller_ != nullptr) {
    EGERIA_CHECK_MSG(m->HasFile("controller.state"),
                     step_dir + ": Egeria enabled but no controller state saved");
    std::ifstream cs(step_dir + "/controller.state", std::ios::binary);
    const bool restored = controller_->RestoreState(cs, [this] {
      InferenceFactory float_factory;
      return model_.CloneForInference(float_factory);
    });
    EGERIA_CHECK_MSG(restored, step_dir + ": controller state restore failed");
  }
  EGERIA_LOG(kInfo) << "rank " << sync_->Rank() << " resumed from " << step_dir
                    << " (iter " << m->iter << ", frontier " << frontier_
                    << ", saved world " << m->world << ")";
  *resumed_iter = m->iter;
  return TransportStatus::Ok();
}

TaskMetric Trainer::Validate() {
  model_.SetTraining(false);
  std::vector<TaskMetric> parts;
  const int64_t n = std::min<int64_t>(cfg_.val_batches, val_loader_.NumBatches());
  for (int64_t b = 0; b < n; ++b) {
    Batch batch = val_loader_.GetBatch(b);
    model_.SetBatch(batch);
    Tensor logits = model_.ForwardFrom(0, batch.input);
    parts.push_back(EvaluateTask(cfg_.task, logits, batch));
  }
  model_.SetTraining(true);
  return AggregateMetric(cfg_.task, parts);
}

TrainResult Trainer::Run() {
  result_ = TrainResult();
  model_.SetTraining(true);
  // Observability: tracing is env-gated (EGERIA_TRACE=1) so any binary built
  // on Trainer can be traced; the metrics registry is always on (atomic
  // updates, no allocation past the first lookup). Every phase is measured
  // once via obs::ScopedPhase, which feeds the TrainResult seconds field, the
  // registry histogram, and the trace span from the same interval — the
  // three can never disagree (see src/obs/README.md).
  trace::InitFromEnv();
  trace::SetThreadName("trainer");
  // Without Egeria there is no bootstrap gate to pass.
  knowledge_stage_ = false;

  int64_t iter = 0;
  TransportStatus st;
  if (!cfg_.ckpt.dir.empty() && cfg_.ckpt.resume) {
    st = TryResume(&result_.resumed_from_iter);
    iter = std::max<int64_t>(result_.resumed_from_iter, 0);
  }
  if (st.ok() && result_.resumed_from_iter < 0) {
    st = sync_->Repartition(model_, frontier_, frontier_, iter);  // Initial layout.
  }
  const int start_epoch = static_cast<int>(iter / IterationsPerEpoch());
  const int64_t start_step = iter % IterationsPerEpoch();

  for (int epoch = start_epoch; st.ok() && epoch < cfg_.epochs; ++epoch) {
    EpochStats es;
    es.epoch = epoch;
    {
      // The epoch clock: its spans add up to total_train_seconds exactly.
      obs::ScopedPhase train_phase("trainer", "train", nullptr, &es.train_seconds);
      st = TrainEpoch(epoch, epoch == start_epoch ? start_step : 0, &es, &iter);
    }
    result_.total_train_seconds += es.train_seconds;
    if (!st.ok() || result_.stopped_early) {
      break;  // Partial epoch: no epoch stats, no validation.
    }
    es.cum_train_seconds = result_.total_train_seconds;
    es.frontier = frontier_;
    es.lr = cfg_.lr_schedule->LrAt(iter);
    if (sync_->Rank() == 0) {
      EGERIA_TRACE_SCOPE("trainer", "validate");
      es.val = Validate();
      if (!result_.reached_target && es.val.score >= cfg_.target_score) {
        result_.reached_target = true;
        result_.tta_seconds = es.cum_train_seconds;
      }
      if (result_.epochs.empty() || es.val.score > result_.best_metric.score) {
        result_.best_metric = es.val;
      }
    }
    // The other ranks wait off the clock while rank 0 validates.
    st = sync_->Barrier();
    result_.epochs.push_back(es);
    if (cfg_.verbose) {
      EGERIA_LOG(kInfo) << "epoch " << epoch << " loss=" << es.train_loss << " val("
                        << es.val.unit << ")=" << es.val.display
                        << " frontier=" << frontier_ << " t=" << es.cum_train_seconds
                        << "s";
    }
  }
  // Natural run end with a capture still in flight: flush it.
  if (st.ok() && ckpt_pending_) {
    st = CommitCheckpoint();
  }
  if (!st.ok()) {
    // The typed error code lands as an instant on this rank's trace track, so
    // a merged timeline shows WHERE in the phase structure the world came apart.
    trace::AddInstantF("transport", "error", "{\"code\":\"%s\"}", st.code_name());
    obs::GetCounter("transport.errors").Add(1);
    result_.status = std::move(st);
    return result_;
  }

  result_.final_metric = result_.epochs.empty() ? TaskMetric{} : result_.epochs.back().val;
  result_.final_frontier = frontier_;
  if (controller_ != nullptr) {
    result_.plasticity = controller_->PlasticityHistory();
    result_.last_ref_quantize_seconds = controller_->LastQuantizeSeconds();
  }
  if (cache_ != nullptr) {
    result_.cache = cache_->Stats();
  }
  return result_;
}

TransportStatus Trainer::TrainEpoch(int epoch, int64_t first_step, EpochStats* es,
                                    int64_t* iter_io) {
  static obs::Histogram& data_hist = obs::GetHistogram("trainer.data_s");
  static obs::Histogram& fp_hist = obs::GetHistogram("trainer.fp_s");
  static obs::Histogram& bp_hist = obs::GetHistogram("trainer.bp_s");
  static obs::Histogram& cache_hist = obs::GetHistogram("trainer.cache_s");
  static obs::Histogram& frozen_fp_hist = obs::GetHistogram("trainer.frozen_fp_s");
  static obs::Histogram& controller_wait_hist =
      obs::GetHistogram("trainer.controller_wait_s");
  static obs::Counter& fp_skip_counter = obs::GetCounter("cache.fp_skips");
  static obs::Counter& decline_counter = obs::GetCounter("cache.declined_iters");
  static obs::Counter& iter_counter = obs::GetCounter("trainer.iterations");
  const int rank = sync_->Rank();
  const int world = sync_->World();
  int64_t& iter = *iter_io;

  loader_.StartEpoch(epoch);
  // Cacheability: the store may only serve an epoch whose sample stream is
  // epoch-deterministic. The dataset promises that by keeping its
  // augmentation signature constant across epochs; probing (epoch, epoch+1)
  // detects epoch-varying augmentation without run history, so the decision
  // is identical on a resumed run.
  aug_signature_ = train_data_.AugmentationSignature(epoch);
  store_cacheable_ = aug_signature_ == train_data_.AugmentationSignature(epoch + 1);
  double epoch_loss = 0.0;
  int64_t epoch_batches = 0;

  for (int64_t step = first_step; step < IterationsPerEpoch(); ++step) {
    ++iter;
    if (iteration_hook_) {
      iteration_hook_(iter);
    }
    // Commit the step captured at the previous boundary: its background write
    // overlapped everything since. A crash before this point left the step
    // manifest-less — invisible to resume.
    if (ckpt_pending_) {
      EGERIA_RETURN_IF_ERROR(CommitCheckpoint());
    }
    const float lr = cfg_.lr_schedule->LrAt(iter);

    // --- Decision intake (Egeria, rank 0): the previous iteration's
    // evaluation decides here, so the drain waits for the controller thread ---
    if (controller_ != nullptr) {
      obs::ScopedPhase wait_phase("trainer", "controller_wait", &controller_wait_hist);
      const std::vector<FreezeDecision> decisions = controller_->DrainDecisions();
      wait_phase.Stop();
      for (const FreezeDecision& d : decisions) {
        ApplyDecision(d);
      }
      if (auto d = controller_->OnLr(lr, iter)) {
        ApplyDecision(*d);
      }
      if (knowledge_stage_ && controller_->WantsSnapshot()) {
        // Float snapshot (the paper's GPU->CPU copy); the controller quantizes it.
        InferenceFactory float_factory;
        controller_->SubmitSnapshot(model_.CloneForInference(float_factory));
      }
    }
    // --- Frontier exchange: every rank applies rank 0's frontier before the
    // forward, then the sync drops the newly frozen stages from its layout ---
    int64_t frontier = frontier_;
    EGERIA_RETURN_IF_ERROR(sync_->Broadcast(&frontier));
    MoveFrontier(static_cast<int>(frontier), iter);
    EGERIA_RETURN_IF_ERROR(SyncFrontier(iter));

    // --- Data: this rank's shard of the epoch (batches rank, rank + world, ...) ---
    obs::ScopedPhase data_phase("trainer", "data", &data_hist, &result_.data_seconds);
    Batch batch = loader_.GetBatch(step * world + rank);
    data_phase.Stop();

    // --- Forward (with optional frozen-prefix skip) ---
    // When a frozen prefix exists and its boundary can seed ForwardFrom, the
    // forward is split into ForwardPrefix + ForwardFrom (bitwise identical to
    // the unsplit pass — same modules, same inputs, same order) so the time
    // spent inside the frozen prefix is measured separately whether the
    // feature store is on or off. The store serves only when the epoch stream
    // is cacheable, the prefix is deterministic and its table fits the budget;
    // otherwise it declines and the prefix is recomputed.
    model_.SetBatch(batch);
    Tensor logits;
    // The fp phase covers the whole forward block; the nested cache and
    // frozen-prefix spans show up inside it on the trace timeline.
    obs::ScopedPhase fp_phase("trainer", "fp", &fp_hist, &result_.fp_seconds);
    const bool skippable_frontier =
        frontier_ > 0 && frontier_ <= model_.MaxForwardSkipStage();
    const bool serve = cache_ != nullptr && skippable_frontier && store_cacheable_ &&
                       model_.PrefixForwardDeterministic(frontier_);
    Tensor cached;
    if (serve) {
      obs::ScopedPhase cache_phase("cache", "lookup", &cache_hist, &result_.cache_seconds);
      cache_->SetKey(frontier_ - 1, CacheGeneration());
      cached = cache_->FetchBatch(batch.sample_ids);  // undefined on a miss
    }
    if (cached.Defined()) {
      trace::AddInstant("cache", "fp_skip");
      fp_skip_counter.Add(1);
      logits = model_.ForwardFrom(frontier_, cached);
      ++result_.fp_skip_count;
      ++es->fp_skips;
    } else if (skippable_frontier) {
      double prefix_seconds = 0.0;
      obs::ScopedPhase prefix_phase("trainer", "frozen_fp", &frozen_fp_hist,
                                    &prefix_seconds);
      Tensor boundary = model_.ForwardPrefix(frontier_ - 1, batch.input);
      prefix_phase.Stop();
      result_.frozen_fp_seconds += prefix_seconds;
      es->frozen_fp_seconds += prefix_seconds;
      logits = model_.ForwardFrom(frontier_, boundary);
      bool stored = false;
      if (serve) {
        obs::ScopedPhase store_phase("cache", "store", &cache_hist, &result_.cache_seconds);
        stored = cache_->StoreBatch(batch.sample_ids, boundary);
      }
      if (cache_ != nullptr && !stored) {
        trace::AddInstant("cache", "decline");
        decline_counter.Add(1);
        ++result_.cache_declined_iters;
      }
    } else {
      logits = model_.ForwardFrom(0, batch.input);
    }
    fp_phase.Stop();

    // --- Loss ---
    LossResult loss = TaskLoss(cfg_.task, logits, batch);
    epoch_loss += loss.loss;
    ++epoch_batches;

    // --- Plasticity evaluation submission (non-blocking) ---
    // Valid on cache-skipped iterations too: ForwardFrom(frontier, cached) still
    // computes the frontier stage, so StageOutput(frontier) is a genuine A_T.
    MaybeSubmitEval(batch, lr, iter);

    // --- Backward, then synchronization + update of the active stages only:
    // frozen stages are "excluded from parameter synchronization" (S4.2.2) ---
    const std::vector<Parameter*> active = model_.ParamsFrom(frontier_);
    {
      obs::ScopedPhase bp_phase("trainer", "bp", &bp_hist, &result_.bp_seconds);
      for (Parameter* p : active) {
        p->grad.Zero_();
      }
      model_.BackwardTo(frontier_, loss.grad);
    }
    EGERIA_RETURN_IF_ERROR(sync_->Step(active, lr, &result_.opt_seconds));

    // --- Bootstrapping monitor (rank 0's loss) ---
    if (controller_ != nullptr && !knowledge_stage_) {
      UpdateBootstrap(loss.loss, iter);
    }

    // --- Baseline hooks ---
    if (hook_ != nullptr) {
      hook_->OnIteration(*this, batch, iter);
      EGERIA_RETURN_IF_ERROR(SyncFrontier(iter + 1));
    }
    ++result_.iterations;
    iter_counter.Add(1);

    // --- Checkpoint + crash-drill stop (end of iteration: weights, optimizer
    // state, and the controller's decision state are all consistent here;
    // every rank shares the config, so the cadence is in lockstep) ---
    const bool at_interval =
        cfg_.ckpt.enabled() && iter % cfg_.ckpt.interval_iters == 0;
    const bool stopping = cfg_.stop_after_iters >= 0 && iter >= cfg_.stop_after_iters;
    if (at_interval || (stopping && cfg_.ckpt.enabled())) {
      CaptureCheckpoint(iter);
    }
    // An async save commits at the NEXT boundary; a stop (or async off)
    // commits inline — nobody is around next iteration to commit for us.
    if (ckpt_pending_ && (stopping || ckpt_writer_ == nullptr)) {
      EGERIA_RETURN_IF_ERROR(CommitCheckpoint());
    }
    if (stopping) {
      result_.stopped_early = true;
      break;
    }
  }
  es->train_loss = epoch_loss / static_cast<double>(std::max<int64_t>(1, epoch_batches));
  return TransportStatus::Ok();
}

#undef EGERIA_RETURN_IF_ERROR

}  // namespace egeria
