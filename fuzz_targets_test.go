package prins_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzListsEveryFuzzer: every Fuzz function in the module has a
// line of its own in the Makefile's fuzz target, naming its package, so
// `make fuzz` (and the CI run of it) cannot leave a new fuzzer out.
func TestMakeFuzzListsEveryFuzzer(t *testing.T) {
	listed := makeFuzzTargets(t)
	declared := regexp.MustCompile(`^func (Fuzz\w+)\(`)
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is a module of its own, outside `make fuzz`'s reach.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			m := declared.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			found++
			pkg := "./" + filepath.ToSlash(filepath.Dir(path))
			if listed[m[1]] != pkg {
				t.Errorf("%s (%s) is not in the Makefile's fuzz target (listed for %q)", m[1], pkg, listed[m[1]])
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no Fuzz function in the tree")
	}
	if len(listed) != found {
		t.Errorf("the fuzz target lists %d fuzzers, the tree declares %d", len(listed), found)
	}
}

// makeFuzzTargets returns the fuzzers the Makefile's fuzz target runs,
// each mapped to the package its line names.
func makeFuzzTargets(t *testing.T) map[string]string {
	t.Helper()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$'.*\s(\./\S+)$`)
	out := map[string]string{}
	in := false
	for _, l := range strings.Split(string(mk), "\n") {
		switch {
		case l == "fuzz:":
			in = true
		case in && !strings.HasPrefix(l, "\t"):
			return out
		case in:
			if m := line.FindStringSubmatch(l); m != nil {
				out[m[1]] = m[2]
			}
		}
	}
	if !in {
		t.Fatal("the Makefile has no fuzz target")
	}
	return out
}
