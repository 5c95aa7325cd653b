package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule writes a one-package module "tmpmod" holding src as bad.go
// under internal/bad and returns its root.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	pkgDir := filepath.Join(root, "internal", "bad")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestLoadRejectsIncompleteTypes: a tree that does not type-check is a load
// error naming the package and the position, never a tree the analyzers
// read with holes in its type information.
func TestLoadRejectsIncompleteTypes(t *testing.T) {
	t.Setenv("GOPROXY", "off") // resolving the missing import stays local
	for _, tc := range []struct{ name, src, want string }{
		{"type error", "package bad\n\nvar x int = \"s\"\n", "bad.go:3:13"},
		{"unresolved import", "package bad\n\nimport _ \"tmpmod/missing\"\n", "bad.go:3:10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkgs, err := Load(writeModule(t, tc.src))
			if err == nil {
				t.Fatalf("Load returned %d packages and no error", len(pkgs))
			}
			for _, want := range []string{"package tmpmod/internal/bad", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}
