//===- nn/Graph.cpp --------------------------------------------------------===//

#include "src/nn/Graph.h"

#include "src/support/Error.h"

using namespace wootz;

//===----------------------------------------------------------------------===//
// ExecContext
//===----------------------------------------------------------------------===//

void ExecContext::bind(const Graph &G) {
  if (Bound != &G) {
    // Rebinding to a different graph invalidates all pass-local state.
    Slots.clear();
    PassId = 0;
    Bound = &G;
  }
  syncSlots();
}

void ExecContext::syncSlots() {
  assert(Bound && "ExecContext is not bound to a graph");
  // Graphs are append-only, so slots only ever grow; existing slots (and
  // their buffers) survive so contexts can be reused across batches.
  if (Slots.size() != Bound->Nodes.size())
    Slots.resize(Bound->Nodes.size());
}

void ExecContext::setInput(const std::string &Name, const Tensor &Value) {
  syncSlots();
  const int Index = Bound->indexOf(Name);
  assert(Index >= 0 && !Bound->Nodes[Index].NodeLayer &&
         "setInput target must be an input placeholder");
  Slots[Index].Activation = Value;
}

void ExecContext::setInput(const std::string &Name, Tensor &&Value) {
  syncSlots();
  const int Index = Bound->indexOf(Name);
  assert(Index >= 0 && !Bound->Nodes[Index].NodeLayer &&
         "setInput target must be an input placeholder");
  Slots[Index].Activation = std::move(Value);
}

void ExecContext::forward(const Graph &G, bool Training) {
  bind(G);
  ++PassId;
  std::vector<const Tensor *> Inputs;
  std::vector<Shape> InputShapes;
  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    const Graph::Node &N = G.Nodes[I];
    Slot &S = Slots[I];
    if (!N.NodeLayer) {
      assert(!S.Activation.empty() && "input placeholder was never bound");
      continue;
    }
    Inputs.clear();
    InputShapes.clear();
    for (int Index : N.Inputs) {
      Inputs.push_back(&Slots[Index].Activation);
      InputShapes.push_back(Slots[Index].Activation.shape());
    }
    const Shape OutShape = N.NodeLayer->outputShape(InputShapes);
    if (S.Activation.shape() != OutShape || S.Activation.empty())
      S.Activation = Tensor(OutShape);
    N.NodeLayer->forward(Inputs, S.Activation, S.Scratch, Training);
  }
}

const Tensor &ExecContext::activation(const std::string &Name) const {
  assert(Bound && "ExecContext is not bound to a graph");
  const int Index = Bound->indexOf(Name);
  assert(Index >= 0 && "unknown node");
  assert(static_cast<size_t>(Index) < Slots.size() &&
         "node was added after the last forward pass");
  return Slots[Index].Activation;
}

const Tensor *ExecContext::outputGradient(const std::string &Name) const {
  assert(Bound && "ExecContext is not bound to a graph");
  const int Index = Bound->indexOf(Name);
  assert(Index >= 0 && "unknown node");
  assert(static_cast<size_t>(Index) < Slots.size() &&
         "node was added after the last forward pass");
  const Slot &S = Slots[Index];
  return S.GradPassId == PassId ? &S.GradOut : nullptr;
}

Result<const Tensor *> ExecContext::findActivation(
    const std::string &Name) const {
  if (!Bound)
    return Error::failure("execution context is not bound to a graph");
  const int Index = Bound->indexOf(Name);
  if (Index < 0 || static_cast<size_t>(Index) >= Slots.size())
    return Error::failure("unknown node \"" + Name + "\"");
  const Slot &S = Slots[Index];
  if (S.Activation.empty())
    return Error::failure("node \"" + Name +
                          "\" has no activation: run forward() first");
  return static_cast<const Tensor *>(&S.Activation);
}

Result<const Tensor *> ExecContext::findOutputGradient(
    const std::string &Name) const {
  if (!Bound)
    return Error::failure("execution context is not bound to a graph");
  const int Index = Bound->indexOf(Name);
  if (Index < 0 || static_cast<size_t>(Index) >= Slots.size())
    return Error::failure("unknown node \"" + Name + "\"");
  const Slot &S = Slots[Index];
  return S.GradPassId == PassId ? static_cast<const Tensor *>(&S.GradOut)
                                : nullptr;
}

void ExecContext::ensureGradBuffer(Slot &S) {
  if (S.GradPassId == PassId)
    return;
  if (S.GradOut.shape() != S.Activation.shape() || S.GradOut.empty())
    S.GradOut = Tensor(S.Activation.shape());
  else
    S.GradOut.zero();
  S.GradPassId = PassId;
}

void ExecContext::seedGradient(const std::string &Name, const Tensor &Grad) {
  assert(Bound && "ExecContext is not bound to a graph");
  syncSlots();
  const int Index = Bound->indexOf(Name);
  assert(Index >= 0 && "unknown node");
  Slot &S = Slots[Index];
  assert(Grad.shape() == S.Activation.shape() &&
         "gradient seed shape must match the activation");
  ensureGradBuffer(S);
  for (size_t I = 0; I < Grad.size(); ++I)
    S.GradOut[I] += Grad[I];
}

void ExecContext::backward(Graph &G) {
  assert(Bound == &G && "backward on a graph this context never ran");
  syncSlots();
  G.updateCarries();
  std::vector<const Tensor *> Inputs;
  std::vector<Tensor *> GradInputs;
  for (size_t I = G.Nodes.size(); I-- > 0;) {
    Graph::Node &N = G.Nodes[I];
    Slot &S = Slots[I];
    // Only nodes whose output gradient was produced this pass take part.
    if (!N.NodeLayer || S.GradPassId != PassId)
      continue;
    Inputs.clear();
    GradInputs.clear();
    for (int Input : N.Inputs) {
      Slot &Producer = Slots[Input];
      Inputs.push_back(&Producer.Activation);
      if (G.Carries[Input] && G.Nodes[Input].NodeLayer) {
        ensureGradBuffer(Producer);
        GradInputs.push_back(&Producer.GradOut);
      } else {
        GradInputs.push_back(nullptr);
      }
    }
    N.NodeLayer->backward(Inputs, S.Activation, S.GradOut, S.Scratch,
                          GradInputs);
  }
}

//===----------------------------------------------------------------------===//
// Graph
//===----------------------------------------------------------------------===//

void Graph::addInput(const std::string &Name) {
  assert(!hasNode(Name) && "duplicate node name");
  Node N;
  N.Name = Name;
  NameToIndex[Name] = static_cast<int>(Nodes.size());
  Nodes.push_back(std::move(N));
  CarriesValid = false;
}

int Graph::addNode(const std::string &Name, std::unique_ptr<Layer> NodeLayer,
                   const std::vector<std::string> &InputNames) {
  assert(!hasNode(Name) && "duplicate node name");
  assert(NodeLayer && "addNode requires a layer");
  Node N;
  N.Name = Name;
  N.NodeLayer = std::move(NodeLayer);
  for (const std::string &InputName : InputNames) {
    const int Index = indexOf(InputName);
    assert(Index >= 0 && "node input must be defined before use");
    N.Inputs.push_back(Index);
  }
  const int Index = static_cast<int>(Nodes.size());
  NameToIndex[Name] = Index;
  Nodes.push_back(std::move(N));
  CarriesValid = false;
  return Index;
}

bool Graph::hasNode(const std::string &Name) const {
  return NameToIndex.count(Name) != 0;
}

Layer &Graph::layer(const std::string &Name) {
  const int Index = indexOf(Name);
  assert(Index >= 0 && "unknown node");
  assert(Nodes[Index].NodeLayer && "input placeholders have no layer");
  return *Nodes[Index].NodeLayer;
}

const Layer *Graph::findLayer(const std::string &Name) const {
  const int Index = indexOf(Name);
  return Index < 0 ? nullptr : Nodes[Index].NodeLayer.get();
}

std::vector<std::string> Graph::nodeInputs(const std::string &Name) const {
  const int Index = indexOf(Name);
  assert(Index >= 0 && "unknown node");
  std::vector<std::string> Names;
  for (int In : Nodes[Index].Inputs)
    Names.push_back(Nodes[In].Name);
  return Names;
}

int Graph::indexOf(const std::string &Name) const {
  auto It = NameToIndex.find(Name);
  return It == NameToIndex.end() ? -1 : It->second;
}

void Graph::zeroGrads() {
  for (Node &N : Nodes) {
    if (!N.NodeLayer)
      continue;
    for (Param *P : N.NodeLayer->params())
      P->Grad.zero();
  }
}

void Graph::updateCarries() {
  if (CarriesValid)
    return;
  Carries.assign(Nodes.size(), false);
  for (size_t I = 0; I < Nodes.size(); ++I) {
    Node &N = Nodes[I];
    bool NodeCarries =
        N.Trainable && N.NodeLayer && !N.NodeLayer->params().empty();
    for (int Input : N.Inputs)
      NodeCarries = NodeCarries || Carries[Input];
    Carries[I] = NodeCarries;
  }
  CarriesValid = true;
}

void Graph::setTrainable(const std::string &Name, bool Trainable) {
  const int Index = indexOf(Name);
  assert(Index >= 0 && "unknown node");
  Nodes[Index].Trainable = Trainable;
  CarriesValid = false;
}

void Graph::setAllTrainable(bool Trainable) {
  for (Node &N : Nodes)
    N.Trainable = Trainable;
  CarriesValid = false;
}

std::vector<Param *> Graph::trainableParams() {
  std::vector<Param *> Params;
  for (Node &N : Nodes) {
    if (!N.NodeLayer || !N.Trainable)
      continue;
    for (Param *P : N.NodeLayer->params())
      Params.push_back(P);
  }
  return Params;
}

std::map<std::string, Param *> Graph::namedState() {
  std::map<std::string, Param *> State;
  for (Node &N : Nodes) {
    if (!N.NodeLayer)
      continue;
    const std::vector<Param *> NodeState = N.NodeLayer->state();
    for (size_t I = 0; I < NodeState.size(); ++I)
      State[N.Name + "/s" + std::to_string(I)] = NodeState[I];
  }
  return State;
}

void Graph::initParams(Rng &Generator) {
  for (Node &N : Nodes)
    if (N.NodeLayer)
      N.NodeLayer->initParams(Generator);
}

size_t Graph::paramCount() {
  size_t Count = 0;
  for (Node &N : Nodes)
    if (N.NodeLayer)
      Count += N.NodeLayer->paramCount();
  return Count;
}

std::string Graph::toDot(const std::string &GraphName) const {
  std::string Out = "digraph \"" + GraphName + "\" {\n";
  Out += "  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  auto quoted = [](const std::string &Name) {
    return "\"" + Name + "\"";
  };
  for (const Node &N : Nodes) {
    Out += "  " + quoted(N.Name) + " [label=\"" + N.Name;
    if (N.NodeLayer) {
      Out += "\\n" + N.NodeLayer->kind();
      const size_t Params = N.NodeLayer->paramCount();
      if (Params > 0)
        Out += " (" + std::to_string(Params) + ")";
    } else {
      Out += "\\ninput";
    }
    Out += "\"";
    if (N.NodeLayer && !N.Trainable)
      Out += ", style=dashed";
    if (!N.NodeLayer)
      Out += ", shape=ellipse";
    Out += "];\n";
  }
  for (const Node &N : Nodes)
    for (int Input : N.Inputs)
      Out += "  " + quoted(Nodes[Input].Name) + " -> " + quoted(N.Name) +
             ";\n";
  return Out + "}\n";
}

std::vector<std::string> Graph::nodeNames() const {
  std::vector<std::string> Names;
  Names.reserve(Nodes.size());
  for (const Node &N : Nodes)
    Names.push_back(N.Name);
  return Names;
}
