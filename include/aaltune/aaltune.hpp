// aaltune umbrella header — the one include for embedders.
//
//   #include <aaltune/aaltune.hpp>   // or "aaltune/aaltune.hpp"
//
// Pulls in the stable entry points of the library in dependency order:
// model graphs and the zoo, the config space, the tuning task / measurer,
// tuners and sessions, the persistent RecordStore, the node-wise model
// pipeline, deployment latency, and observability. Link against the
// `aaltune` CMake target (an INTERFACE target bundling every module) — see
// examples/embed_minimal.cpp for the end-to-end embedder path: build graph
// -> tune with a store -> query best configs.
//
// Embedders should prefer this header over reaching into src/ internals:
// everything here is the supported surface. Each run setting has one home:
// TuneOptions (policy loop), MeasureOptions (measurer) and ModelTuneOptions
// (model pipeline) each document the fields they read. Targets come from
// make_target(name); TargetSpec::from_gpu wraps a custom GpuSpec.
#pragma once

// Support: errors (aal::Error hierarchy), logging, RNG.
#include "support/common.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

// Observability: structured traces, metrics, the Obs handle.
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

// Model graphs: IR, builders, the model zoo, fusion.
#include "graph/fusion.hpp"
#include "graph/graph.hpp"
#include "graph/model_parser.hpp"
#include "graph/models.hpp"
#include "ir/workload.hpp"

// Configuration space and simulated hardware: the target registry, the
// per-backend device models, the simulated device and fault injection.
#include "hwsim/device.hpp"
#include "hwsim/device_model.hpp"
#include "hwsim/fault.hpp"
#include "hwsim/target.hpp"
#include "space/config_space.hpp"

// Measurement: tasks, measurer, record logs.
#include "measure/measure.hpp"
#include "measure/record.hpp"
#include "measure/tuning_task.hpp"

// Tuners: the ask/tell policy interface, sessions, and the paper's
// advanced active-learning tuner.
#include "core/advanced_tuner.hpp"
#include "ml/transfer.hpp"
#include "tuner/tuner.hpp"
#include "tuner/tuning_session.hpp"

// Persistent cross-run record store.
#include "store/record_store.hpp"

// Fleet-scale transfer priors: task embeddings over store history, the
// nearest-prior-task index, and the warm-start prior builder
// (DESIGN.md §15).
#include "transfer/task_embedding.hpp"
#include "transfer/task_index.hpp"
#include "transfer/transfer_prior.hpp"
#include "transfer/workload_key.hpp"

// Node-wise pipeline: tune a whole model, simulate deployed latency.
#include "pipeline/latency.hpp"
#include "pipeline/model_tuner.hpp"

// Serving: the tuning-as-a-service daemon core, its wire protocol and the
// Unix-domain socket transport (docs/SERVING.md).
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
