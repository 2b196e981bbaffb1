package plan

// Helpers shared with the package's external tests (package plan_test),
// which evaluate plans through internal/kernel — a package that imports
// this one.
var (
	TestCatalog = testCatalog
	MustBind    = mustBind
)

// Tables returns the table scans in a plan.
func Tables(n Node) []*ScanTable {
	var out []*ScanTable
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*ScanTable); ok {
			out = append(out, s)
		}
		for _, k := range n.Children() {
			walk(k)
		}
	}
	walk(n)
	return out
}
