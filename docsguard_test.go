package dixq_test

// Documentation guards: these tests keep the prose honest. One walks
// every internal package and fails if its package comment is missing or
// trivial; one resolves every relative link in the repository's markdown
// files; the rest cross-check docs/API.md against the flag sets, option
// struct and request type it documents. All run in plain `go test ./...`,
// so documentation rot fails CI like any other regression. (The file is
// an external test package so it can import internal/server, which
// imports dixq.)

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dixq"
	"dixq/internal/cliflags"
	"dixq/internal/server"
)

// TestEveryInternalPackageHasDoc parses each internal package and
// requires a package comment of at least one full sentence.
func TestEveryInternalPackageHasDoc(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("glob found only %d internal packages — run from the repo root", len(dirs))
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			doc := ""
			for _, f := range pkg.Files {
				if f.Doc != nil && f.Doc.Text() != "" {
					doc = f.Doc.Text()
					break
				}
			}
			if len(doc) < 60 {
				t.Errorf("package %s (%s): package doc missing or trivial (%d chars) — add a package comment saying what it is and which part of the paper it implements", name, dir, len(doc))
			}
		}
	}
}

// mdLink matches inline markdown links; the loop below skips absolute
// URLs and in-page anchors and resolves the rest against the file's
// directory.
var mdLink = regexp.MustCompile(`\]\(([^)#?\s]+)(?:#[^)]*)?\)`)

// TestMarkdownRelativeLinksResolve checks every relative link in the
// repository's documentation.
func TestMarkdownRelativeLinksResolve(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 5 {
		t.Fatalf("found only %d markdown files — run from the repo root", len(files))
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved to %s)", file, target, resolved)
			}
		}
	}
}

// registeredFlags builds a command's real flag set through
// internal/cliflags — the same constructor its main uses — and returns
// the registered flag names. Checking against the FlagSet rather than
// grepping main.go means a flag can't hide from the guard behind an
// unusual declaration style.
func registeredFlags(register func(fs *flag.FlagSet)) map[string]bool {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	register(fs)
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// apiDocFlags extracts the flag names documented in one command's table
// of the "Command-line flags" part of docs/API.md (the `### <command>`
// section; rows open with a backticked `-name`, optionally followed by a
// value placeholder).
func apiDocFlags(t *testing.T, apiDoc, command string) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(apiDoc, "### "+command+"\n")
	if !ok {
		t.Fatalf("docs/API.md: no `### %s` section", command)
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	names := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		rest, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			continue
		}
		cell, _, ok := strings.Cut(rest, "`")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(cell, " ")
		names[name] = true
	}
	if len(names) == 0 {
		t.Fatalf("docs/API.md: `### %s` section contains no flag rows", command)
	}
	return names
}

// TestCommandFlagsMatchAPIDocs cross-checks each binary's flag set
// against its docs/API.md table, in both directions: an undocumented
// flag and a documented-but-removed flag both fail.
func TestCommandFlagsMatchAPIDocs(t *testing.T) {
	data, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	apiDoc := string(data)
	commands := []struct {
		name     string
		register func(fs *flag.FlagSet)
	}{
		{"dixqd", func(fs *flag.FlagSet) { cliflags.Dixqd(fs) }},
		{"dibench", func(fs *flag.FlagSet) { cliflags.Dibench(fs, nil) }},
	}
	for _, cmd := range commands {
		registered := registeredFlags(cmd.register)
		documented := apiDocFlags(t, apiDoc, cmd.name)
		for name := range registered {
			if !documented[name] {
				t.Errorf("%s flag -%s is not documented in the `### %s` table of docs/API.md", cmd.name, name, cmd.name)
			}
		}
		for name := range documented {
			if !registered[name] {
				t.Errorf("docs/API.md documents %s flag -%s, which the command does not register", cmd.name, name)
			}
		}
	}
}

// codeSpan matches inline markdown code spans; flagToken matches the
// flag-shaped words inside them.
var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	optionsRef = regexp.MustCompile(`dixq\.Options\.(\w+)`)
	metricRef  = regexp.MustCompile(`dixq_[a-z0-9_]+`)
)

// TestPerformanceDocKnobsResolve keeps docs/PERFORMANCE.md honest:
// every `-flag` it names must be registered by dixqd or dibench, every
// `dixq.Options.Field` must be a real Options field, and every
// `dixq_*` metric name must appear in the docs/API.md metrics table.
func TestPerformanceDocKnobsResolve(t *testing.T) {
	perf, err := os.ReadFile("docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	apiDoc, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := registeredFlags(func(fs *flag.FlagSet) { cliflags.Dixqd(fs) })
	for name := range registeredFlags(func(fs *flag.FlagSet) { cliflags.Dibench(fs, nil) }) {
		flags[name] = true
	}
	for _, span := range codeSpan.FindAllStringSubmatch(string(perf), -1) {
		for _, word := range strings.Fields(span[1]) {
			name, ok := strings.CutPrefix(word, "-")
			if !ok || name == "" || name[0] < 'a' || name[0] > 'z' {
				continue
			}
			if !flags[name] {
				t.Errorf("docs/PERFORMANCE.md names flag -%s, which neither dixqd nor dibench registers", name)
			}
		}
	}
	optType := reflect.TypeOf(dixq.Options{})
	for _, m := range optionsRef.FindAllStringSubmatch(string(perf), -1) {
		if _, ok := optType.FieldByName(m[1]); !ok {
			t.Errorf("docs/PERFORMANCE.md names dixq.Options.%s, which is not a field of dixq.Options", m[1])
		}
	}
	for _, metric := range metricRef.FindAllString(string(perf), -1) {
		if !strings.Contains(string(apiDoc), metric) {
			t.Errorf("docs/PERFORMANCE.md names metric %s, which docs/API.md does not document", metric)
		}
	}
}

// apiDocTableNames extracts the names documented in the tables of one
// docs/API.md section (the text after heading up to the next heading):
// every row that opens with a backticked name contributes that name.
func apiDocTableNames(t *testing.T, apiDoc, heading string) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(apiDoc, heading+"\n")
	if !ok {
		t.Fatalf("docs/API.md: no %q section", heading)
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	names := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		rest, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		if name, _, ok := strings.Cut(rest, "`"); ok {
			names[name] = true
		}
	}
	if len(names) == 0 {
		t.Fatalf("docs/API.md: %q section contains no table rows", heading)
	}
	return names
}

// TestAPIDocTablesMatchTypes checks, in both directions, that the
// `## dixq.Options` table lists every field of dixq.Options and that the
// `POST /query` field table lists every JSON field of
// server.QueryRequest: an undocumented field and a documented field that
// no longer exists both fail.
func TestAPIDocTablesMatchTypes(t *testing.T) {
	data, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	apiDoc := string(data)

	options := map[string]bool{}
	ot := reflect.TypeOf(dixq.Options{})
	for i := 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); f.IsExported() {
			options[f.Name] = true
		}
	}
	request := map[string]bool{}
	rt := reflect.TypeOf(server.QueryRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			request[name] = true
		}
	}

	for _, c := range []struct {
		heading, what string
		fields        map[string]bool
	}{
		{"## dixq.Options", "dixq.Options field", options},
		{"### POST /query", "server.QueryRequest JSON field", request},
	} {
		documented := apiDocTableNames(t, apiDoc, c.heading)
		for name := range c.fields {
			if !documented[name] {
				t.Errorf("%s %s is not documented in the %q table of docs/API.md", c.what, name, c.heading)
			}
		}
		for name := range documented {
			if !c.fields[name] {
				t.Errorf("docs/API.md %q table documents %s, which is not a %s", c.heading, name, c.what)
			}
		}
	}
}
