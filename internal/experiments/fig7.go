package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/sparseqr"
)

// Fig7Row is one matrix of the evaluation set, with the generator's
// achieved operation count next to the published one.
type Fig7Row struct {
	sparseqr.MatrixStats
	GeneratedGflop float64
	Fronts         int
}

// Fig7Result reproduces the paper's Fig. 7 table and validates the
// synthetic assembly-tree generator against the published statistics.
type Fig7Result struct {
	Rows []Fig7Row
}

// RunFig7 builds every matrix's tree and records the achieved op counts.
func RunFig7(*Ctx) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, stats := range sparseqr.Matrices {
		tr := sparseqr.BuildTree(stats)
		res.Rows = append(res.Rows, Fig7Row{
			MatrixStats:    stats,
			GeneratedGflop: tr.TotalFlops() / 1e9,
			Fronts:         len(tr.Fronts),
		})
	}
	return res, nil
}

// Print renders the table in the paper's layout plus generator columns.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 7: QR_MUMPS matrices (published stats + synthetic-tree validation)")
	fmt.Fprintf(w, "%-14s %9s %8s %9s %10s | %10s %7s\n",
		"matrix", "rows", "cols", "nnz", "op(Gflop)", "gen(Gflop)", "fronts")
	rule(w, 78)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %9d %8d %9d %10.0f | %10.0f %7d\n",
			row.Name, row.Rows, row.Cols, row.Nonzeros, row.OpCount,
			row.GeneratedGflop, row.Fronts)
	}
}
