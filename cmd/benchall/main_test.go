package main

import (
	"strings"
	"testing"
)

func TestUnknownExperimentExits2(t *testing.T) {
	for _, exp := range []string{"fig66", "fig6,fig66", ","} {
		var out, errb strings.Builder
		if code := run([]string{"-exp", exp}, &out, &errb); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), "table1,fig1,fig2") {
			t.Errorf("-exp %q: exit %d, want 2 with nothing run and the valid names listed; stdout %q, stderr %q", exp, code, out.String(), errb.String())
		}
	}
}
