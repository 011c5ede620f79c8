package cli

import (
	"flag"
	"os"
	"regexp"
	"testing"
)

// TestREADMEListsEveryFlag keeps README.md's flag tables in step with the
// shared flag groups: every flag this package can register is documented.
func TestREADMEListsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	FrameFlags(fs, Frame{Scene: "PARK", Config: "mobile"})
	SamplingFlags(fs)
	FaultFlags(fs)
	c := New(fs, "all")
	c.StoreFlag("0")
	c.ProfileFlags()
	fs.VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile("`-" + regexp.QuoteMeta(f.Name) + "[ `]").Match(readme) {
			t.Errorf("README.md does not document -%s", f.Name)
		}
	})
}
