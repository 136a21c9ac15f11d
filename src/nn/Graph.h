//===- nn/Graph.h - DAG network runtime ------------------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A directed-acyclic network of layers, the runtime counterpart of the
/// multiplexing model the Wootz compiler generates. A single Graph can
/// host the full (teacher) model and several pruned tuning blocks side by
/// side: nodes are individually freezable, and backward propagation stops
/// automatically at frozen subgraphs, which is exactly what Teacher-
/// Student pre-training needs (§6.1 of the paper).
///
/// Ownership is split in two. The Graph is the *model*: topology, layer
/// parameters, and persistent state (e.g. batchnorm running statistics).
/// After construction it is immutable during execution, so any number of
/// callers may read it concurrently. All pass-local state — activations,
/// output gradients, per-layer scratch, gradient-pass bookkeeping — lives
/// in an ExecContext created per caller. That is what lets one trained
/// teacher or one assembled network serve many threads without copying
/// its weights (the composability premise of §6.1).
///
/// Usage for one training step:
/// \code
///   ExecContext Ctx(G);
///   Ctx.setInput("input", std::move(Batch)); // or copy from an lvalue
///   Ctx.forward(G, /*Training=*/true);
///   G.zeroGrads();
///   double Loss = softmaxCrossEntropy(Ctx.activation("logits"), Labels,
///                                     Grad);
///   Ctx.seedGradient("logits", Grad);
///   Ctx.backward(G);
///   Optimizer.step(G.trainableParams());
/// \endcode
///
/// ExecContext is the only way to run a Graph: the Graph itself holds no
/// activations, so a context is cheap to create per call and a moved
/// Graph needs no fix-up.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_NN_GRAPH_H
#define WOOTZ_NN_GRAPH_H

#include "src/nn/Layer.h"
#include "src/support/Error.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wootz {

class Graph;

/// Per-caller execution state for one Graph: activations, output
/// gradients, and per-layer scratch. Create one ExecContext per thread
/// (or per in-flight evaluation) over a shared Graph; contexts are cheap
/// to keep alive and reuse their buffers across batches, reallocating
/// only when a shape changes.
///
/// Thread-safety contract (see DESIGN.md "Re-entrant execution"):
/// concurrent forward() calls over one Graph through distinct contexts
/// are safe in both eval and training mode; concurrent backward() calls
/// are not (parameter gradients are shared model state). Do not use one
/// ExecContext from two threads at once.
class ExecContext {
public:
  /// Creates an unbound context; bind() or the first forward() attaches
  /// it to a graph.
  ExecContext() = default;

  /// Creates a context bound to \p G.
  explicit ExecContext(const Graph &G) { bind(G); }

  ExecContext(ExecContext &&) = default;
  ExecContext &operator=(ExecContext &&) = default;

  /// Attaches this context to \p G, sizing the per-node slots. Rebinding
  /// to a different graph resets all pass-local state.
  void bind(const Graph &G);

  /// The graph this context is bound to, or null.
  const Graph *graph() const { return Bound; }

  /// Binds \p Value to the input placeholder \p Name (copies the tensor).
  void setInput(const std::string &Name, const Tensor &Value);

  /// Move-in variant: takes ownership of \p Value without copying the
  /// batch. Use this on hot paths (Trainer steps, the serving Batcher).
  void setInput(const std::string &Name, Tensor &&Value);

  /// Runs every node of \p G in topological order. \p G must be the bound
  /// graph (an unbound context binds to it).
  void forward(const Graph &G, bool Training);

  /// The most recent activation of node \p Name. Valid after forward().
  const Tensor &activation(const std::string &Name) const;

  /// The gradient of the loss w.r.t. node \p Name's output from the most
  /// recent backward() pass, or null if none flowed there this pass.
  /// Used by data-driven filter-importance criteria (pruning/Importance).
  const Tensor *outputGradient(const std::string &Name) const;

  /// Checked variant of activation() for lookups on user-supplied node
  /// names (the serve path): unknown names become a clean Error instead
  /// of an assert.
  Result<const Tensor *> findActivation(const std::string &Name) const;

  /// Checked variant of outputGradient(); unknown names become an Error.
  /// A known node that received no gradient this pass yields success
  /// holding nullptr, mirroring outputGradient().
  Result<const Tensor *> findOutputGradient(const std::string &Name) const;

  /// Accumulates \p Grad into the output gradient of node \p Name.
  /// Shapes must match the node's current activation.
  void seedGradient(const std::string &Name, const Tensor &Grad);

  /// Propagates all seeded gradients back to every trainable parameter of
  /// \p G. Frozen subgraphs (no trainable ancestors) are skipped. Takes
  /// the graph non-const: parameter gradients are model state, so callers
  /// running backward concurrently over one graph must serialize.
  void backward(Graph &G);

private:
  /// Pass-local state for one graph node.
  struct Slot {
    Tensor Activation;
    Tensor GradOut;
    uint64_t GradPassId = 0; ///< Pass in which GradOut was last zeroed.
    LayerScratch Scratch;
  };

  /// Grows Slots to cover nodes added to the bound graph after bind().
  void syncSlots();
  /// Ensures \p S's GradOut matches its activation and is zeroed for the
  /// current pass.
  void ensureGradBuffer(Slot &S);

  const Graph *Bound = nullptr;
  std::vector<Slot> Slots;
  uint64_t PassId = 0;
};

/// A DAG of named layer nodes: topology plus parameters. Execution state
/// lives in ExecContext.
class Graph {
public:
  Graph() = default;
  /// Graphs are movable (AssembledNetwork holds one by value). Contexts
  /// bound to the moved-from graph must be rebound.
  Graph(Graph &&) = default;
  Graph &operator=(Graph &&) = default;

  /// Declares an input placeholder named \p Name.
  void addInput(const std::string &Name);

  /// Adds a layer node consuming the named producer nodes, which must
  /// already exist (so insertion order is a topological order). Returns
  /// the node's index.
  int addNode(const std::string &Name, std::unique_ptr<Layer> NodeLayer,
              const std::vector<std::string> &InputNames);

  /// True if a node with this name exists.
  bool hasNode(const std::string &Name) const;

  /// The layer behind \p Name; asserts that the node exists and is not an
  /// input placeholder.
  Layer &layer(const std::string &Name);

  /// Read-only access to the layer behind \p Name; null for input
  /// placeholders and unknown names. The compile-time inspection entry
  /// point for freeze-time consumers (wootz::plan).
  const Layer *findLayer(const std::string &Name) const;

  /// Producer node names of \p Name in declaration order; empty for
  /// input placeholders. Asserts that the node exists.
  std::vector<std::string> nodeInputs(const std::string &Name) const;

  /// Zeroes all parameter gradients.
  void zeroGrads();

  /// Marks node \p Name (not) trainable. Frozen nodes keep their
  /// parameters fixed and do not receive gradient flow from below.
  void setTrainable(const std::string &Name, bool Trainable);

  /// Marks every node (not) trainable.
  void setAllTrainable(bool Trainable);

  /// Parameters of all currently trainable nodes.
  std::vector<Param *> trainableParams();

  /// All persistent state keyed by "node/sK" (layer state index K);
  /// includes non-trainable state such as batchnorm running stats.
  std::map<std::string, Param *> namedState();

  /// Randomly initializes every layer's parameters.
  void initParams(Rng &Generator);

  /// Total trainable scalar count over the whole graph (the paper's
  /// "model size" metric counts Conv/Dense weights; see
  /// pruning/ModelSize.h for that accounting).
  size_t paramCount();

  /// Names of all nodes in topological order.
  std::vector<std::string> nodeNames() const;

  /// Renders the graph in Graphviz dot format: one node per layer
  /// (labelled with its kind and parameter count; frozen nodes dashed),
  /// one edge per data dependency. Debugging/visualization aid for the
  /// multiplexing structures (`dot -Tsvg`).
  std::string toDot(const std::string &GraphName = "wootz") const;

private:
  friend class ExecContext;

  /// Topology-plus-parameters node record. Pass-local tensors live in
  /// ExecContext::Slot, one per node per context.
  struct Node {
    std::string Name;
    std::unique_ptr<Layer> NodeLayer; ///< Null for input placeholders.
    std::vector<int> Inputs;
    bool Trainable = true;
  };

  int indexOf(const std::string &Name) const;
  /// Lazily recomputes the carries-gradient flags after topology or
  /// trainability changes.
  void updateCarries();

  std::vector<Node> Nodes;
  std::map<std::string, int> NameToIndex;
  std::vector<bool> Carries; ///< Node has a trainable ancestor-or-self.
  bool CarriesValid = false;
};

} // namespace wootz

#endif // WOOTZ_NN_GRAPH_H
