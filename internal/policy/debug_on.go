//go:build thanosdebug

package policy

import "fmt"

// Built with -tags thanosdebug, every warm (memoized) execution audits the
// version memo before trusting it: it copies the memoized static buffers to
// scratch, re-runs every table-static step cold, and panics if any buffer
// differs. A mismatch means either a table mutator changed contents without
// bumping the version, or a caller wrote to a vector Exec returned. Only
// static steps are re-run, so stateful units (round-robin pointers, LFSRs)
// advance exactly as in a normal build and random streams are unchanged.
const memoAudit = true

//thanos:coldpath debug build only: the audit re-runs the static program on every warm call
func (it *Interp) auditMemo() {
	j := 0
	for i := range it.prog {
		if !it.dynContent[i] && it.prog[i].kind != stepTable {
			it.audit[j].CopyFrom(it.vals[i])
			j++
		}
	}
	for i := range it.prog {
		if !it.dynContent[i] {
			it.execStep(i)
		}
	}
	j = 0
	for i := range it.prog {
		if !it.dynContent[i] && it.prog[i].kind != stepTable {
			if !it.audit[j].Equal(it.vals[i]) {
				panic(fmt.Sprintf("policy: memoized step %d (%s) at table version %d holds %s, a cold run gives %s",
					i, it.labels[i], it.memoVersion, it.audit[j], it.vals[i]))
			}
			j++
		}
	}
}
