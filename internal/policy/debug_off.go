//go:build !thanosdebug

package policy

// memoAudit reports whether the thanosdebug warm-path memo audit is
// compiled in. In normal builds it is constant false and auditMemo is an
// empty, inlined call.
const memoAudit = false

func (it *Interp) auditMemo() {}
