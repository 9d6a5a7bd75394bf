// Scoped suppression for gcc's AVX-512 intrinsic false positives.
//
// gcc's AVX-512 intrinsic wrappers pass an undefined merge operand to their
// *_mask builtins, which trips -Wmaybe-uninitialized (and, for the unpack and
// shuffle wrappers, -Wuninitialized) at every function the intrinsics inline
// into (gcc bug 105593). Not actionable in user code. Wrap
// only the intrinsic-using functions (and their inline destinations) in
// EGERIA_BEGIN/END_INTRIN_NOWARN so the warning stays live for surrounding
// code.
#ifndef EGERIA_SRC_UTIL_INTRIN_DIAG_H_
#define EGERIA_SRC_UTIL_INTRIN_DIAG_H_

#if defined(__GNUC__) && !defined(__clang__)
#define EGERIA_BEGIN_INTRIN_NOWARN                            \
  _Pragma("GCC diagnostic push")                              \
  _Pragma("GCC diagnostic ignored \"-Wmaybe-uninitialized\"") \
  _Pragma("GCC diagnostic ignored \"-Wuninitialized\"")
#define EGERIA_END_INTRIN_NOWARN _Pragma("GCC diagnostic pop")
#else
#define EGERIA_BEGIN_INTRIN_NOWARN
#define EGERIA_END_INTRIN_NOWARN
#endif

#endif  // EGERIA_SRC_UTIL_INTRIN_DIAG_H_
