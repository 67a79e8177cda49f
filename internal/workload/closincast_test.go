package workload

import (
	"testing"

	"incastlab/internal/netsim"
)

// TestCheckClosFlowsMatchesEndpoints pins the list-free placement check to
// ClosFlowEndpoints: every invalid shape fails with the identical error,
// and every valid shape passes the check and places aggregators x workers
// flows.
func TestCheckClosFlowsMatchesEndpoints(t *testing.T) {
	clos := netsim.DefaultClosConfig(4, 8)
	cases := []struct {
		name                 string
		workers, aggregators int
		placement            string
		valid                bool
	}{
		{"single aggregator cross-rack", 24, 1, PlacementCrossRack, true},
		{"single aggregator default placement", 5, 0, "", true},
		{"single aggregator same-rack", 7, 1, PlacementSameRack, true},
		{"multi-aggregator cross-rack", 6, 4, PlacementCrossRack, true},
		{"multi-aggregator same-rack", 7, 3, PlacementSameRack, true},
		{"aggregators exceed racks", 1, 5, PlacementCrossRack, false},
		{"no workers", 0, 1, PlacementCrossRack, false},
		{"negative workers", -3, 1, PlacementSameRack, false},
		{"no workers per aggregator", 0, 2, PlacementCrossRack, false},
		{"unknown placement", 4, 1, "diagonal", false},
		{"unknown placement multi-aggregator", 4, 2, "diagonal", false},
		{"cross-rack overflow", 25, 1, PlacementCrossRack, false},
		{"same-rack overflow", 8, 1, PlacementSameRack, false},
		{"same-rack overflow multi-aggregator", 8, 2, PlacementSameRack, false},
		{"full rack multi-aggregator cross-rack", 8, 4, PlacementCrossRack, false},
	}
	for _, tc := range cases {
		srcs, dsts, want := ClosFlowEndpoints(clos, tc.workers, tc.aggregators, tc.placement)
		got := CheckClosFlows(clos, tc.workers, tc.aggregators, tc.placement)
		if !tc.valid {
			if want == nil {
				t.Errorf("%s: ClosFlowEndpoints accepted an invalid shape", tc.name)
			} else if got == nil || got.Error() != want.Error() {
				t.Errorf("%s: CheckClosFlows = %v, want %v", tc.name, got, want)
			}
			continue
		}
		if want != nil || got != nil {
			t.Errorf("%s: valid shape rejected: endpoints %v, check %v", tc.name, want, got)
			continue
		}
		if n := tc.workers * max(tc.aggregators, 1); len(srcs) != n || len(dsts) != n {
			t.Errorf("%s: %d/%d endpoints, want %d", tc.name, len(srcs), len(dsts), n)
		}
	}
}
