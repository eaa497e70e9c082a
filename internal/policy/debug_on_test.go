//go:build thanosdebug

package policy

import (
	"math/rand"
	"strings"
	"testing"
)

// TestMemoAuditCatchesCallerWrite: a caller that writes to a vector Exec
// returned corrupts the memoized buffer; the debug-build audit must catch
// it on the next warm execution instead of serving the corrupted table.
func TestMemoAuditCatchesCallerWrite(t *testing.T) {
	schema := table5Schema("conga")
	r := rand.New(rand.NewSource(5))
	table := memoTable(t, r, 64, len(schema.Attrs), true)
	it, err := NewInterp(table, schema, MustParse(Table5Policies["conga"]))
	if err != nil {
		t.Fatal(err)
	}
	out := it.Exec()[0]
	it.Exec() // warm, clean: the audit passes
	out.Reset()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "memoized step") {
			t.Fatalf("warm execution after a caller write: recovered %q, want the memo audit panic", msg)
		}
	}()
	it.Exec()
}
