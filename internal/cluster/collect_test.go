package cluster

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"kset/internal/types"
	"kset/internal/wire"
)

// TestCollectTables runs the collector on hand-built tables: the copies must
// agree on every live row, rows of nodes outside the live mask are neither
// awaited nor compared, and a live row left undecided fails at the deadline.
func TestCollectTables(t *testing.T) {
	d := func(v types.Value) wire.TableRow { return wire.TableRow{Decided: true, Value: v} }
	var open wire.TableRow
	for _, tc := range []struct {
		name   string
		live   []bool
		tables [][]wire.TableRow // node i's rows
		want   []string          // substrings of the error; nil: success
	}{
		{
			name:   "identical",
			live:   []bool{true, true, true},
			tables: [][]wire.TableRow{{d(1), d(2), d(1)}, {d(1), d(2), d(1)}, {d(1), d(2), d(1)}},
		},
		{
			name:   "live row differs",
			live:   []bool{true, true, true},
			tables: [][]wire.TableRow{{d(1), d(2), d(1)}, {d(1), d(2), d(1)}, {d(1), d(3), d(1)}},
			want:   []string{"instance 7:", "row 1 ", "on node 0", "on node 2"},
		},
		{
			name:   "row of a node outside the mask differs",
			live:   []bool{true, true, false},
			tables: [][]wire.TableRow{{d(1), d(2), open}, {d(1), d(2), d(9)}, {d(5), d(6), d(7)}},
		},
		{
			name:   "live row stays undecided",
			live:   []bool{true, true, false},
			tables: [][]wire.TableRow{{d(1), d(2), open}, {d(1), open, open}, {d(1), d(2), d(3)}},
			want:   []string{"instance 7 on node 1", errDeadline.Error()},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := CollectTables(7, tc.live, func(i int) (wire.Table, error) {
				return wire.Table{Instance: 7, Rows: tc.tables[i]}, nil
			}, time.Now())
			if tc.want == nil {
				if err != nil {
					t.Fatal(err)
				}
				if first := tc.tables[0]; !slices.Equal(tbl.Rows, first) {
					t.Errorf("collected %+v, want node 0's %+v", tbl.Rows, first)
				}
				return
			}
			if err == nil {
				t.Fatalf("collected %+v, want an error", tbl.Rows)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
		})
	}
	t.Run("no live node", func(t *testing.T) {
		_, err := CollectTables(7, []bool{false, false}, func(int) (wire.Table, error) {
			t.Fatal("pulled a table from a node outside the mask")
			return wire.Table{}, nil
		}, time.Now())
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
}
