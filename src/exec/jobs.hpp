#pragma once

// Job-count policy for the parallel sweep engine (docs/parallelism.md).
//
// Every parallel layer — the worst-case adversary families, the degradation
// grids, the chaos sweeps, the exhaustive enumerator's branch fan-out —
// resolves its worker count through default_jobs(): an explicit
// set_default_jobs() value (the CLI --jobs flag), else the SESP_JOBS
// environment variable, else the hardware concurrency. Job count is a
// throughput knob only: results are bit-identical for every value,
// including 1 (the serial path).

namespace sesp::exec {

// max(1, std::thread::hardware_concurrency()).
int hardware_jobs() noexcept;

// Resolution order: set_default_jobs() > SESP_JOBS env > hardware_jobs().
// A malformed or non-positive SESP_JOBS is ignored.
int default_jobs() noexcept;

// Installs an explicit job count (clamped to >= 1); 0 resets to the
// env/hardware default. Returns the previous explicit value (0 if none).
// Call from the main thread before sweeps start, like
// obs::set_default_observer.
int set_default_jobs(int jobs) noexcept;

}  // namespace sesp::exec
