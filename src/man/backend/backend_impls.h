// Singleton accessors for the concrete kernels, internal to the
// registry (callers go through backend_for()/resolve()).
#ifndef MAN_BACKEND_BACKEND_IMPLS_H
#define MAN_BACKEND_BACKEND_IMPLS_H

#include "man/backend/kernel_backend.h"

namespace man::backend::detail {

[[nodiscard]] const KernelBackend& scalar_backend();
[[nodiscard]] const KernelBackend& blocked_backend();
[[nodiscard]] const KernelBackend& simd_backend();
[[nodiscard]] const KernelBackend& avx512_backend();

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_BACKEND_IMPLS_H
