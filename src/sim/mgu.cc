#include "sim/mgu.h"

#include "util/simd.h"

namespace save {

uint16_t
elmF32(const VecReg &a, const VecReg &b, uint16_t wm)
{
    // Zero detection over the actual operand values (+-0.0 both count:
    // the product is exactly zero and the accumulation is
    // ineffectual). Routed through the host-SIMD backend; all backends
    // agree bit-for-bit with the scalar reference (util/simd.h).
    return simd::ops().elmF32(a, b, wm);
}

uint32_t
elmMp(const VecReg &a, const VecReg &b, uint16_t wm)
{
    return simd::ops().elmMp(a, b, wm);
}

} // namespace save
