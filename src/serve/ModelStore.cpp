//===- serve/ModelStore.cpp ------------------------------------------------===//

#include "src/serve/ModelStore.h"

#include "src/compiler/GraphBuilder.h"
#include "src/nn/Serialize.h"
#include "src/serve/ArtifactStore.h"
#include "src/support/File.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

using namespace wootz;
using namespace wootz::serve;

ModelStore::ModelStore(std::string Dir, ModelStoreOptions Options,
                       ModelRegistry *Registry, RunLog *Log)
    : Dir(std::move(Dir)), Options(std::move(Options)), Registry(Registry),
      Log(Log) {}

/// Uploaded ids become directory names and URL path segments, so only a
/// conservative charset is allowed — this is also what rules out path
/// traversal in the persistence layer.
static bool isValidModelId(const std::string &Id) {
  if (Id.empty() || Id.size() > 64)
    return false;
  for (char C : Id)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '-')
      return false;
  return true;
}

UploadOutcome ModelStore::reject(int Status, std::string Message) {
  UploadOutcome Out;
  Out.Status = Status;
  Out.Error = std::move(Message);
  return Out;
}

std::string ModelStore::modelDir(const std::string &Id) const {
  return Dir + "/" + Id;
}

UploadOutcome
ModelStore::upload(const std::map<std::string, std::string> &Body) {
  UploadOutcome Out = uploadChecked(Body);
  if (Log) {
    if (Out.Status == 201)
      Log->bump("serve.models.uploaded");
    else
      Log->bump("serve.models.upload_rejected");
  }
  return Out;
}

UploadOutcome
ModelStore::uploadChecked(const std::map<std::string, std::string> &Body) {
  if (Dir.empty())
    return reject(503, "the model store has no directory");
  auto ModelIt = Body.find("model");
  if (ModelIt == Body.end())
    return reject(400, "missing required field 'model' (Prototxt text)");
  const std::string &Prototxt = ModelIt->second;
  if (Prototxt.size() > Options.MaxPrototxtBytes)
    return reject(413, "model text is " + std::to_string(Prototxt.size()) +
                           " bytes; the limit is " +
                           std::to_string(Options.MaxPrototxtBytes));

  std::string WeightBytes;
  if (auto It = Body.find("weights_b64"); It != Body.end()) {
    // Cheap pre-decode cap: base64 inflates 3 bytes to 4 characters, so
    // the character count bounds the decoded size before any allocation.
    if (It->second.size() / 4 * 3 > Options.MaxWeightBytes)
      return reject(413, "weights decode to more than the limit of " +
                             std::to_string(Options.MaxWeightBytes) +
                             " bytes");
    Result<std::string> Decoded = base64Decode(It->second);
    if (!Decoded)
      return reject(400, "weights_b64: " + Decoded.message());
    WeightBytes = Decoded.take();
  }

  uint64_t Seed = 7;
  if (auto It = Body.find("seed"); It != Body.end()) {
    Result<long long> Parsed = parseInteger(It->second);
    if (!Parsed)
      return reject(400, "seed: " + Parsed.message());
    Seed = static_cast<uint64_t>(*Parsed);
  }

  std::string Id;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Known.size() >= Options.MaxModels)
      return reject(429, "the store holds the maximum of " +
                             std::to_string(Options.MaxModels) +
                             " uploaded models; DELETE one first");
    if (auto It = Body.find("id"); It != Body.end()) {
      if (!isValidModelId(It->second))
        return reject(400, "id must be 1-64 characters of [A-Za-z0-9_-]");
      Id = It->second;
    } else {
      // Generated ids must also dodge ids persisted by *other* daemons
      // sharing the directory, which this process has never loaded.
      std::error_code FsError;
      do
        Id = "model-" + std::to_string(NextId++);
      while (Known.count(Id) ||
             std::filesystem::exists(modelDir(Id), FsError));
    }
    std::error_code FsError;
    if (Known.count(Id) || std::filesystem::exists(modelDir(Id), FsError))
      return reject(409, "model id '" + Id + "' is already uploaded");
  }
  // The registry also holds job winners and preloads; their ids are taken
  // too (answered before the expensive build below).
  if (Registry && Registry->find(Id))
    return reject(409, "model id '" + Id + "' is already registered");

  const std::string Origin =
      WeightBytes.empty() ? "uploaded (random init)"
                          : "uploaded (imported weights)";
  return ingest(Id, Prototxt, WeightBytes, Seed, Origin);
}

UploadOutcome ModelStore::ingest(const std::string &Id,
                                 const std::string &Prototxt,
                                 const std::string &WeightBytes,
                                 uint64_t Seed, const std::string &Origin) {
  Result<ModelSpec> Spec = parseModelSpec(Prototxt);
  if (!Spec)
    return reject(400, "model: " + Spec.message());
  Result<BuiltNetwork> Built = buildFullNetwork(*Spec, Seed);
  if (!Built)
    return reject(400, "model: " + Built.message());

  if (!WeightBytes.empty()) {
    Result<TensorBundle> Bundle = deserializeTensors(WeightBytes);
    if (!Bundle)
      return reject(400, "weights: " + Bundle.message());
    if (Error E = importWeights(Built->Network, FullNetworkPrefix,
                                *Bundle))
      return reject(400, "weights: " + E.message());
  }

  // Persist before registering: the bundle always comes from the built
  // network, so random-initialized uploads restore bit-identically too.
  const std::string Bytes =
      serializeTensors(exportWeights(Built->Network, FullNetworkPrefix));
  Error Write = writeFileAtomic(modelDir(Id) + "/model.prototxt", Prototxt);
  if (!Write)
    Write = writeFileAtomic(modelDir(Id) + "/weights.ck", Bytes);
  if (Write) {
    if (Log)
      Log->bump("serve.models.persist_failed");
    return reject(500, "persisting model '" + Id + "': " + Write.message());
  }

  auto Network = std::make_shared<AssembledNetwork>();
  Network->InputNode = Built->InputNode;
  Network->LogitsNode = Built->LogitsNode;
  const int Channels = Spec->InputChannels;
  const int Height = Spec->InputHeight;
  const int Width = Spec->InputWidth;
  const int Classes = Built->Classes;
  Network->Network = std::move(Built->Network);

  if (Registry)
    if (Error E = Registry->add(Id, std::move(Network), Channels, Height,
                                Width, Classes, Origin))
      return reject(409, E.message());

  std::lock_guard<std::mutex> Lock(Mutex);
  Known[Id] = Prototxt;
  UploadOutcome Out;
  Out.Status = 201;
  Out.Id = Id;
  return Out;
}

Error ModelStore::remove(const std::string &Id) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Known.find(Id);
    if (It == Known.end())
      return Error::failure("no uploaded model '" + Id + "'");
    Known.erase(It);
  }
  Error Removed = Registry ? Registry->remove(Id) : Error::success();
  std::error_code FsError;
  std::filesystem::remove_all(modelDir(Id), FsError);
  if (Log)
    Log->bump("serve.models.deleted");
  return Removed;
}

Result<std::string> ModelStore::prototxtFor(const std::string &Id) const {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Known.find(Id);
    if (It != Known.end())
      return It->second;
  }
  // Shared-store fallback: a peer daemon may have persisted the model.
  // Read-only — registration (if wanted) is tryRestore()'s job.
  if (isValidModelId(Id)) {
    Result<std::string> Text = readFile(modelDir(Id) + "/model.prototxt");
    if (Text)
      return Text.take();
  }
  return Error::failure("no uploaded model '" + Id + "'");
}

bool ModelStore::has(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Known.count(Id) != 0;
}

size_t ModelStore::count() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Known.size();
}

size_t ModelStore::loadFromDisk(const ArtifactStore *Placement) {
  // Deterministic registration order (directory iteration order is not).
  std::error_code FsError;
  std::vector<std::string> Ids;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir, FsError)) {
    if (!Entry.is_directory())
      continue;
    const std::string Id = Entry.path().filename().string();
    if (isValidModelId(Id))
      Ids.push_back(Id);
  }
  std::sort(Ids.begin(), Ids.end());

  size_t Restored = 0;
  for (const std::string &Id : Ids) {
    // Placement-aware startup: in a shared store each daemon eagerly
    // restores (and freezes) only the models rendezvous hashing
    // assigns to it; everything else loads lazily on first use. Any
    // single daemon — or one whose peers all died — still owns every
    // key, so nothing is ever unreachable.
    if (Placement && !Placement->ownsLocally("model/" + Id)) {
      if (Log)
        Log->bump("serve.models.restore_deferred");
      continue;
    }
    Result<std::string> Prototxt =
        readFile(modelDir(Id) + "/model.prototxt");
    Result<std::string> Weights = readFile(modelDir(Id) + "/weights.ck");
    UploadOutcome Out =
        !Prototxt ? reject(400, Prototxt.message())
        : !Weights
            ? reject(400, Weights.message())
            : ingest(Id, *Prototxt, *Weights, 7, "restored upload");
    if (Out.Status == 201) {
      ++Restored;
      if (Log)
        Log->bump("serve.models.restored");
    } else if (Log) {
      // A corrupt entry is skipped, never fatal: the daemon still comes
      // up with every healthy model.
      Log->bump("serve.models.restore_failed");
    }
  }
  return Restored;
}

bool ModelStore::tryRestore(const std::string &Id) {
  if (!isValidModelId(Id))
    return false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Known.count(Id))
      return true;
  }
  Result<std::string> Prototxt = readFile(modelDir(Id) + "/model.prototxt");
  Result<std::string> Weights = readFile(modelDir(Id) + "/weights.ck");
  if (!Prototxt || !Weights)
    return false;
  UploadOutcome Out = ingest(Id, *Prototxt, *Weights, 7, "restored upload");
  if (Out.Status == 201) {
    if (Log)
      Log->bump("serve.models.restored");
    return true;
  }
  // Two request threads can race to restore the same model; the loser's
  // registry add comes back 409, and "already registered" is a success
  // for the caller's purposes.
  if (Registry && Registry->find(Id)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Known.count(Id))
      Known[Id] = *Prototxt;
    return true;
  }
  if (Log)
    Log->bump("serve.models.restore_failed");
  return false;
}
