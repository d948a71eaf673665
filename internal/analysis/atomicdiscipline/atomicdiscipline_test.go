package atomicdiscipline

import (
	"testing"

	"github.com/clof-go/clof/internal/analysis/atest"
)

func TestFlagged(t *testing.T) {
	atest.Run(t, Analyzer, "mixed", "cellinit", "internal/store")
}

func TestClean(t *testing.T) {
	atest.RunExpectClean(t, Analyzer, "atclean")
}
