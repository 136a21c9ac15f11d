//===- serve/ModelStore.h - Uploaded-model ingestion and persistence -------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ingestion front of the serve daemon: accepts user CNNs over
/// `POST /v1/models` (one JSON body: Prototxt text plus an optional
/// base64 WOOTZCK2 weight bundle), validates them through every layer of
/// the pipeline (size caps -> Prototxt parse -> spec analysis -> graph
/// build -> strict weight import), registers the result with the
/// ModelRegistry so it is immediately predictable and targetable by
/// pruning jobs, and persists it under the server state directory so a
/// restarted daemon re-registers every uploaded model.
///
/// On-disk layout (one directory per model, written atomically):
///
///   <Dir>/<id>/model.prototxt   the spec, exactly as validated
///   <Dir>/<id>/weights.ck       WOOTZCK2 bundle ("<layer>/s<K>" keys)
///
/// Every rejected upload bumps `serve.models.upload_rejected`.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_MODELSTORE_H
#define WOOTZ_SERVE_MODELSTORE_H

#include "src/serve/Batcher.h"

#include <map>
#include <mutex>
#include <string>

namespace wootz {
namespace serve {

class ArtifactStore;

/// Ingestion knobs. The byte caps are per-field application-level limits
/// under the transport-level HttpLimits::MaxBodyBytes.
struct ModelStoreOptions {
  /// Largest accepted Prototxt, in bytes.
  size_t MaxPrototxtBytes = 256 * 1024;
  /// Largest accepted *decoded* weight bundle, in bytes.
  size_t MaxWeightBytes = 16 * 1024 * 1024;
  /// Cap on concurrently stored uploaded models.
  size_t MaxModels = 32;
};

/// How an upload resolved, with the HTTP status to answer.
struct UploadOutcome {
  int Status = 201;  ///< 201 created / 400 / 409 / 413 / 429.
  std::string Id;    ///< Set on success.
  std::string Error; ///< Set on failure.
};

/// Uploaded-model table: validation, registration, persistence.
class ModelStore {
public:
  /// \p Dir is the persistence directory (ArtifactStore::modelsDir() in
  /// the daemon; uploads answer 503 when it is empty); \p Registry receives validated models; \p Log
  /// (optional) gets `serve.models.upload*` counters.
  ModelStore(std::string Dir, ModelStoreOptions Options,
             ModelRegistry *Registry, RunLog *Log);

  ModelStore(const ModelStore &) = delete;
  ModelStore &operator=(const ModelStore &) = delete;

  /// Handles one POST /v1/models body. Fields: "model" (required,
  /// Prototxt text), "weights_b64" (optional, base64 WOOTZCK2; absent
  /// means seeded random initialization), "id" (optional, [A-Za-z0-9_-],
  /// generated when absent), "seed" (optional integer).
  UploadOutcome upload(const std::map<std::string, std::string> &Body);

  /// Handles DELETE /v1/models/:id: unregisters the model, forgets it,
  /// and removes its on-disk directory. Only uploaded models can be
  /// removed (job winners and preloads are not the store's to delete).
  Error remove(const std::string &Id);

  /// The stored Prototxt of uploaded model \p Id — what a pruning job
  /// with "model": "<id>" targets. Falls back to the on-disk copy when
  /// the id is not in memory: in a shared artifact store another
  /// process may have uploaded it.
  Result<std::string> prototxtFor(const std::string &Id) const;

  /// True if \p Id names an uploaded model.
  bool has(const std::string &Id) const;

  /// Number of uploaded models currently stored.
  size_t count() const;

  /// Scans the directory and re-registers every persisted model (server
  /// restart). Returns how many came back; corrupt entries are skipped
  /// with a `serve.models.restore_failed` bump, never a crash. With
  /// \p Placement, only models this process places (rendezvous hash
  /// over the registered daemons) are restored eagerly — the rest stay
  /// on disk until a request pulls them in via tryRestore().
  size_t loadFromDisk(const ArtifactStore *Placement = nullptr);

  /// On-demand restore of one persisted model that is not (yet) in
  /// memory — the lazy half of shared-store serving: any daemon can
  /// serve any uploaded model the moment it is asked to, regardless of
  /// which daemon took the upload or what placement says. Returns true
  /// when \p Id is registered afterwards.
  bool tryRestore(const std::string &Id);

private:
  /// upload() body; the wrapper adds the uploaded / upload_rejected
  /// counter bump.
  UploadOutcome
  uploadChecked(const std::map<std::string, std::string> &Body);
  /// Shared validate-build-register path behind upload() and
  /// loadFromDisk(). \p WeightBytes empty means random initialization
  /// from \p Seed. On success the model is in the registry and in Known.
  UploadOutcome ingest(const std::string &Id, const std::string &Prototxt,
                       const std::string &WeightBytes, uint64_t Seed,
                       const std::string &Origin);
  UploadOutcome reject(int Status, std::string Message);
  std::string modelDir(const std::string &Id) const;

  std::string Dir;
  ModelStoreOptions Options;
  ModelRegistry *Registry = nullptr;
  RunLog *Log = nullptr;

  mutable std::mutex Mutex;
  /// id -> validated Prototxt text of every uploaded model.
  std::map<std::string, std::string> Known;
  uint64_t NextId = 1;
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_MODELSTORE_H
