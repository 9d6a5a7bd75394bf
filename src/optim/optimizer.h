// Optimizers operating on explicit parameter lists.
//
// The parameter list is passed per step (not captured at construction) because Egeria
// changes the active set during training: frozen parameters are excluded from the
// update, exactly like setting requires_grad=false in the paper's PyTorch
// implementation (S5). State (momentum / Adam moments) is keyed by Parameter pointer;
// the training loop releases it (ReleaseState) when a stage freezes — the
// optimizer-state half of the memory saving that sharding exploits across ranks.
#ifndef EGERIA_SRC_OPTIM_OPTIMIZER_H_
#define EGERIA_SRC_OPTIM_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/serialize.h"

namespace egeria {

// The one compiled instance of the momentum-SGD update arithmetic. Every SGD
// path (replicated Sgd, ZeRO-1 ShardedSgd) calls these same functions so
// their results are bitwise-identical — inlining the loops separately would let
// the compiler contract mul+add chains differently per call site.
void SgdUpdateRange(float* w, const float* g, float* v, int64_t n, float lr,
                    float momentum, float weight_decay);
void SgdUpdateRangeNoMomentum(float* w, const float* g, int64_t n, float lr,
                              float weight_decay);

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  // Applies one update using accumulated gradients; does not zero them.
  virtual void Step(const std::vector<Parameter*>& params, float lr) = 0;
  // Drops per-parameter state (momentum / moments) for `params`, freeing their
  // memory; they restart from zero state if they ever become active again.
  virtual void ReleaseState(const std::vector<Parameter*>& params) = 0;
  // Resident bytes of optimizer state currently held.
  virtual int64_t StateBytes() const = 0;

  // Checkpoint support. ExportState adds this optimizer's per-parameter state
  // to `out`, keyed "<names[i]>#<field>" for params[i]; parameters that hold
  // no state (released frozen stages, never-stepped params) contribute
  // nothing. ImportState is the exact inverse: present entries are restored
  // bitwise, absent entries leave the parameter stateless (matching
  // ReleaseState semantics). Returns false (and logs) on a shape mismatch.
  virtual void ExportState(const std::vector<Parameter*>& params,
                           const std::vector<std::string>& names,
                           Checkpoint& out) const = 0;
  virtual bool ImportState(const std::vector<Parameter*>& params,
                           const std::vector<std::string>& names,
                           const Checkpoint& in) = 0;
};

class Sgd : public Optimizer {
 public:
  explicit Sgd(float momentum = 0.9F, float weight_decay = 0.0F);
  void Step(const std::vector<Parameter*>& params, float lr) override;
  void ReleaseState(const std::vector<Parameter*>& params) override;
  int64_t StateBytes() const override;
  void ExportState(const std::vector<Parameter*>& params,
                   const std::vector<std::string>& names, Checkpoint& out) const override;
  bool ImportState(const std::vector<Parameter*>& params,
                   const std::vector<std::string>& names, const Checkpoint& in) override;

 private:
  float momentum_;
  float weight_decay_;
  std::unordered_map<Parameter*, Tensor> velocity_;
};

class Adam : public Optimizer {
 public:
  Adam(float beta1 = 0.9F, float beta2 = 0.999F, float eps = 1e-8F,
       float weight_decay = 0.0F);
  void Step(const std::vector<Parameter*>& params, float lr) override;
  void ReleaseState(const std::vector<Parameter*>& params) override;
  int64_t StateBytes() const override;
  void ExportState(const std::vector<Parameter*>& params,
                   const std::vector<std::string>& names, Checkpoint& out) const override;
  bool ImportState(const std::vector<Parameter*>& params,
                   const std::vector<std::string>& names, const Checkpoint& in) override;

 private:
  struct State {
    Tensor m;
    Tensor v;
    int64_t t = 0;
  };
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::unordered_map<Parameter*, State> state_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_OPTIM_OPTIMIZER_H_
