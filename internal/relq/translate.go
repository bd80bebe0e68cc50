package relq

import (
	"fmt"

	"codecdb/internal/colstore"
	"codecdb/internal/ops"
)

// DecodeKeys maps an int64 batch column of dict codes for col back to
// values (the final projection of a late-materialized plan). Code -1
// decodes to nil.
func DecodeKeys(r *colstore.Reader, col string, codes []int64) ([][]byte, error) {
	ci, _, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	dict, err := r.StrDict(ci)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(codes))
	for i, k := range codes {
		if k >= 0 && int(k) < len(dict) {
			out[i] = dict[k]
		}
	}
	return out, nil
}

// decodeBatchKeys rewrites batch column j (dict codes for col) into its
// decoded values in place: strings for a string column, ints for an int
// one.
func decodeBatchKeys(r *colstore.Reader, b *ops.Batch, j int, col string) error {
	if b.Kinds[j] != ops.RelInt {
		return fmt.Errorf("relq: batch column %q is not int-typed", b.Names[j])
	}
	ci, c, err := r.Column(col)
	if err != nil {
		return err
	}
	if c.Type == colstore.TypeInt64 {
		dict, err := r.IntDict(ci)
		if err != nil {
			return err
		}
		for i, k := range b.Ints[j] {
			b.Ints[j][i] = dict[k]
		}
		return nil
	}
	vals, err := DecodeKeys(r, col, b.Ints[j])
	if err != nil {
		return err
	}
	b.Kinds[j] = ops.RelStr
	b.Ints[j] = nil
	b.Strs[j] = vals
	return nil
}
