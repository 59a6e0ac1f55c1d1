// Package relation implements the relational substrate for the data market
// platform: typed schemas, relations, and the relational, non-relational and
// fusion operators the Mashup Builder composes (paper §3, §5).
//
// The package deliberately supports relations that break the first normal
// form: a cell may hold a multi-value, a set of values each tagged with the
// source it came from. Fusion operators (internal/fusion) produce such cells
// when contrasting signals from multiple sellers (paper §1, "data fusion
// operators ... produce relations that break the first normal form").
//
// # Cells
//
// A cell is a Value of 40 bytes (it was 96 while every kind had its own
// field): the kind, one word for an int64, a float64's bits or a bool, a
// string, and a pointer that only time and multi cells allocate. Cells are
// most of what the market holds: every shared relation in the catalog, each
// share payload in flight and the rows of each mashup in the DoD candidate
// cache. A relation of n rows and c columns costs about n*(40c+24) bytes.
//
// # Execution model
//
// Operators execute as Volcano-style pull iterators (Iter), the package's one
// operator API: a pipeline is assembled from NewScan/NewSelect/NewProject/
// NewHashJoin/... and drained once by Materialize, which preserves row order,
// surfaces mid-stream errors such as the maxJoinRows guard, and leaves the
// result unnamed for the caller to name. A chain of operators costs one
// materialization, not one per stage. The frozen pre-iterator eager operators
// live on only in the tests, as the reference every pipeline is checked
// against; NestedLoopJoin is the reference join.
//
// # Ownership and retention rules for rows flowing through iterators
//
//   - A row returned by Iter.Next is valid until the caller drops it; it is
//     never recycled by the iterator. Sinks may retain rows (Materialize
//     does, storing them directly in the result relation).
//   - Shape-preserving operators (scan, select, limit, union, rename) pass
//     row slices through by reference: the rows they yield alias the source
//     relation's storage. Mutating a yielded row in place mutates the
//     source. Consumers that need to write must copy first.
//   - Shape-changing operators (project, map, map-rows, add-column, hash
//     join) allocate a fresh outer slice per output row, but the Values
//     inside are shared with the inputs — safe because Value is immutable.
//   - Relations produced by Materialize own their outer Rows slice:
//     appending through a result can never clobber a source relation (the
//     historical Limit/Rename aliasing bugs).
//   - An Iter is single-use. Close is idempotent and releases child
//     iterators and join hash tables; Materialize closes for you.
//   - Iterators are not safe for concurrent use; build a fresh pipeline per
//     goroutine. The source *Relation may be shared read-only.
package relation
