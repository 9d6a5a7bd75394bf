#include "src/core/controller.h"

#include <functional>
#include <utility>

#include "src/ckpt/state_dict.h"
#include "src/ckpt/wire.h"
#include "src/metrics/sp_loss.h"
#include "src/quant/quantized_modules.h"
#include "src/tensor/serialize.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace egeria {

EgeriaController::EgeriaController(const EgeriaConfig& cfg, int num_stages,
                                   bool lr_annealing)
    : cfg_(cfg),
      factory_(MakeInferenceFactory(cfg.reference_precision, cfg.quant_mode)),
      policy_(cfg, num_stages, lr_annealing),
      thread_([this] { ControllerLoop(); }) {}

EgeriaController::~EgeriaController() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void EgeriaController::SubmitSnapshot(std::unique_ptr<ChainModel> snapshot) {
  wants_snapshot_.store(false);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshots_.push_back(std::move(snapshot));
    ++in_flight_;
  }
  cv_.notify_all();
}

void EgeriaController::SubmitEval(EvalRequest req) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    evals_.push_back(std::move(req));
    ++in_flight_;
  }
  cv_.notify_all();
}

void EgeriaController::WaitIdle() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::vector<FreezeDecision> EgeriaController::DrainDecisions() {
  WaitIdle();
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(decisions_, {});
}

std::optional<FreezeDecision> EgeriaController::OnLr(float lr, int64_t iter) {
  WaitIdle();
  return policy_.OnLr(lr, iter);
}

std::vector<PlasticityRecord> EgeriaController::PlasticityHistory() const {
  WaitIdle();
  return history_;
}

int EgeriaController::Frontier() const {
  WaitIdle();
  return policy_.frontier();
}

void EgeriaController::ControllerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || in_flight_ > 0; });
    if (stopping_) {
      return;
    }
    // A snapshot before any evaluation: the trainer submits an iteration's
    // snapshot at its top and its evaluation after the forward.
    if (!snapshots_.empty()) {
      std::unique_ptr<ChainModel> snapshot = std::move(snapshots_.front());
      snapshots_.pop_front();
      lock.unlock();
      BuildReference(std::move(snapshot));
      lock.lock();
    } else {
      EvalRequest req = std::move(evals_.front());
      evals_.pop_front();
      lock.unlock();
      const std::optional<FreezeDecision> decision = ProcessEval(req);
      lock.lock();
      if (decision) {
        decisions_.push_back(*decision);
      }
    }
    if (--in_flight_ == 0) {
      cv_.notify_all();
    }
  }
}

void EgeriaController::BuildReference(std::unique_ptr<ChainModel> snapshot) {
  WallTimer timer;
  reference_ = snapshot->CloneForInference(*factory_);
  ref_snapshot_ = std::move(snapshot);
  evals_since_refresh_ = 0;
  last_quantize_seconds_.store(timer.ElapsedSeconds());
  has_reference_.store(true);
}

namespace {
constexpr uint32_t kControllerMagic = 0x4F434745;  // 'EGCO'
constexpr uint32_t kControllerVersion = 2;

// DFS over the model's stage modules, visiting the activation quantizer of
// every quantized leaf of the reference model in a deterministic order.
// Rebuilding the reference from the saved snapshot reproduces the int8
// weights bit-for-bit (quantization is a pure function of the floats), but
// NOT the static-mode activation calibration, which accrues across
// evaluation forwards — so that state is carried explicitly.
void ForEachQuantizer(ChainModel& model, const std::function<void(ActivationQuantizer&)>& fn) {
  std::function<void(Module*)> visit = [&](Module* m) {
    if (auto* ql = dynamic_cast<QuantLinear*>(m)) {
      fn(ql->quantizer());
    } else if (auto* qc = dynamic_cast<QuantConv2d*>(m)) {
      fn(qc->quantizer());
    }
    for (Module* child : m->Children()) {
      visit(child);
    }
  };
  for (int i = 0; i < model.NumStages(); ++i) {
    for (Module* m : model.StageModules(i)) {
      visit(m);
    }
  }
}

}  // namespace

void EgeriaController::SaveState(std::ostream& os) {
  // Fold the work in flight into the saved state (see header); its decisions
  // stay queued for the next drain.
  WaitIdle();
  std::vector<FreezeDecision> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending = decisions_;
  }
  wire::Write(os, kControllerMagic);
  wire::Write(os, kControllerVersion);
  policy_.SaveState(os);
  wire::Write(os, static_cast<uint32_t>(pending.size()));
  for (const FreezeDecision& d : pending) {
    wire::Write(os, static_cast<uint8_t>(d.kind == FreezeDecision::Kind::kFreezeUpTo));
    wire::Write(os, static_cast<int32_t>(d.stage));
    wire::Write(os, d.iter);
  }
  wire::Write(os, static_cast<int64_t>(evals_since_refresh_));
  wire::Write(os, evals_done_.load());
  wire::Write(os, static_cast<uint8_t>(wants_snapshot_.load() ? 1 : 0));
  wire::Write(os, static_cast<uint64_t>(history_.size()));
  for (const PlasticityRecord& r : history_) {
    wire::Write(os, r.iter);
    wire::Write(os, static_cast<int32_t>(r.stage));
    wire::Write(os, r.raw);
  }
  const bool has_ref = has_reference_.load() && ref_snapshot_ != nullptr;
  wire::Write(os, static_cast<uint8_t>(has_ref ? 1 : 0));
  if (has_ref) {
    const Checkpoint snap = ExportModelState(*ref_snapshot_);
    wire::Write(os, static_cast<uint64_t>(snap.size()));
    for (const auto& [name, tensor] : snap) {
      wire::WriteString(os, name);
      WriteTensor(os, tensor);
    }
    // Static-quant calibration state of the live reference, in DFS order.
    std::vector<QuantCalibrationState> calib;
    ForEachQuantizer(*reference_,
                     [&](ActivationQuantizer& q) { calib.push_back(q.calibration()); });
    wire::Write(os, static_cast<uint32_t>(calib.size()));
    for (const QuantCalibrationState& c : calib) {
      wire::Write(os, c.max_abs);
      wire::Write(os, static_cast<uint8_t>(c.observed ? 1 : 0));
      wire::Write(os, static_cast<int32_t>(c.calibration_left));
    }
  }
}

bool EgeriaController::RestoreState(
    std::istream& is,
    const std::function<std::unique_ptr<ChainModel>()>& make_snapshot) {
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!wire::Read(is, magic) || magic != kControllerMagic || !wire::Read(is, version) ||
      version != kControllerVersion) {
    EGERIA_LOG(kError) << "controller state: bad header";
    return false;
  }
  if (!policy_.LoadState(is)) {
    return false;
  }
  uint32_t pending_count = 0;
  if (!wire::Read(is, pending_count) || pending_count > 1024) {
    EGERIA_LOG(kError) << "controller state: bad pending-decision count";
    return false;
  }
  std::vector<FreezeDecision> pending(pending_count);
  for (FreezeDecision& d : pending) {
    uint8_t is_freeze = 0;
    int32_t stage = 0;
    if (!wire::Read(is, is_freeze) || !wire::Read(is, stage) || !wire::Read(is, d.iter)) {
      EGERIA_LOG(kError) << "controller state: truncated pending decision";
      return false;
    }
    d.kind = is_freeze != 0 ? FreezeDecision::Kind::kFreezeUpTo
                            : FreezeDecision::Kind::kUnfreezeAll;
    d.stage = stage;
  }
  int64_t evals_since_refresh = 0;
  int64_t evals_done = 0;
  uint8_t wants_snapshot = 0;
  if (!wire::Read(is, evals_since_refresh) || !wire::Read(is, evals_done) ||
      !wire::Read(is, wants_snapshot)) {
    EGERIA_LOG(kError) << "controller state: truncated counters";
    return false;
  }
  uint64_t history_count = 0;
  if (!wire::Read(is, history_count) || history_count > (1ULL << 32)) {
    EGERIA_LOG(kError) << "controller state: bad history count";
    return false;
  }
  std::vector<PlasticityRecord> history;
  history.reserve(static_cast<size_t>(history_count));
  for (uint64_t i = 0; i < history_count; ++i) {
    PlasticityRecord r;
    int32_t stage = 0;
    if (!wire::Read(is, r.iter) || !wire::Read(is, stage) || !wire::Read(is, r.raw)) {
      EGERIA_LOG(kError) << "controller state: truncated history";
      return false;
    }
    r.stage = stage;
    history.push_back(r);
  }
  uint8_t has_ref = 0;
  if (!wire::Read(is, has_ref)) {
    EGERIA_LOG(kError) << "controller state: truncated tail";
    return false;
  }
  if (has_ref != 0) {
    uint64_t count = 0;
    if (!wire::Read(is, count) || count > (1ULL << 24)) {
      EGERIA_LOG(kError) << "controller state: bad snapshot entry count";
      return false;
    }
    Checkpoint snap;
    for (uint64_t i = 0; i < count; ++i) {
      std::string name;
      if (!wire::ReadString(is, name)) {
        EGERIA_LOG(kError) << "controller state: truncated snapshot name";
        return false;
      }
      Tensor t = ReadTensor(is, "controller snapshot:" + name);
      if (!t.Defined()) {
        return false;
      }
      snap.emplace(std::move(name), std::move(t));
    }
    std::unique_ptr<ChainModel> model = make_snapshot();
    if (model == nullptr || !LoadModelState(snap, *model)) {
      EGERIA_LOG(kError) << "controller state: reference snapshot restore failed";
      return false;
    }
    uint32_t calib_count = 0;
    if (!wire::Read(is, calib_count) || calib_count > (1U << 24)) {
      EGERIA_LOG(kError) << "controller state: bad calibration count";
      return false;
    }
    std::vector<QuantCalibrationState> calib(calib_count);
    for (QuantCalibrationState& c : calib) {
      uint8_t observed = 0;
      int32_t left = 0;
      if (!wire::Read(is, c.max_abs) || !wire::Read(is, observed) ||
          !wire::Read(is, left)) {
        EGERIA_LOG(kError) << "controller state: truncated calibration record";
        return false;
      }
      c.observed = observed != 0;
      c.calibration_left = left;
    }
    BuildReference(std::move(model));
    size_t idx = 0;
    bool calib_ok = true;
    ForEachQuantizer(*reference_, [&](ActivationQuantizer& q) {
      if (idx < calib.size()) {
        q.RestoreCalibration(calib[idx]);
      } else {
        calib_ok = false;
      }
      ++idx;
    });
    if (!calib_ok || idx != calib.size()) {
      EGERIA_LOG(kError) << "controller state: calibration record count mismatch ("
                         << calib.size() << " saved, " << idx << " modules)";
      return false;
    }
  }
  // BuildReference reset the refresh counter; the saved values win.
  evals_since_refresh_ = evals_since_refresh;
  evals_done_.store(evals_done);
  wants_snapshot_.store(wants_snapshot != 0);
  history_ = std::move(history);
  std::lock_guard<std::mutex> lock(mutex_);
  decisions_ = std::move(pending);
  return true;
}

std::optional<FreezeDecision> EgeriaController::ProcessEval(const EvalRequest& req) {
  if (reference_ == nullptr) {
    return std::nullopt;  // No snapshot submitted yet; drop this periodic sample.
  }
  // The controller's own forward pass plays the ROQ role (Fig. 6): A_R at
  // the same boundary, elicited by the same mini-batch.
  reference_->SetBatch(req.batch);
  const Tensor a_ref = reference_->ForwardPrefix(req.stage, req.batch.input);
  const double plasticity = SpLoss(req.train_act, a_ref);  // Equation 1.
  std::optional<FreezeDecision> decision =
      policy_.OnPlasticity(req.stage, plasticity, req.lr, req.iter);
  history_.push_back({req.iter, req.stage, plasticity});
  evals_done_.fetch_add(1);
  if (++evals_since_refresh_ >= cfg_.ref_update_evals) {
    evals_since_refresh_ = 0;
    wants_snapshot_.store(true);
  }
  return decision;
}

}  // namespace egeria
