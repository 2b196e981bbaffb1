package sql

import (
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) Stmt {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, t.b FROM s WHERE a >= 1.5 AND name = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{}
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokKeyword {
		t.Errorf("tok0 = %+v", toks[0])
	}
	var sawStr bool
	for _, tok := range toks {
		if tok.Kind == TokString {
			sawStr = true
			if tok.Text != "it's" {
				t.Errorf("string literal = %q", tok.Text)
			}
		}
	}
	if !sawStr {
		t.Error("no string token")
	}
	_ = kinds
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("SELECT a -- comment here\nFROM s")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if strings.Contains(tok.Text, "comment") {
			t.Error("comment leaked into tokens")
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'oops"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("bad char should fail")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, _ := Lex("1 2.5 3e4 6E-2")
	if toks[0].Kind != TokInt || toks[1].Kind != TokFloat ||
		toks[2].Kind != TokFloat || toks[3].Kind != TokFloat {
		t.Errorf("number kinds wrong: %+v", toks[:4])
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, "CREATE TABLE tab (id INT, name VARCHAR, score DOUBLE)").(*CreateTable)
	if s.Name != "tab" || len(s.Cols) != 3 {
		t.Fatalf("create = %+v", s)
	}
	if s.Cols[1].Type != "VARCHAR" {
		t.Errorf("col type = %q", s.Cols[1].Type)
	}
}

func TestParseCreateStream(t *testing.T) {
	s := mustParse(t, "CREATE STREAM sens (ts TIMESTAMP, v FLOAT)").(*CreateStream)
	if s.Name != "sens" || len(s.Cols) != 2 || s.Cols[0].Type != "TIMESTAMP" {
		t.Fatalf("create stream = %+v", s)
	}
}

func TestParseDrop(t *testing.T) {
	for _, w := range []string{"TABLE", "STREAM", "QUERY"} {
		s := mustParse(t, "DROP "+w+" x").(*DropStmt)
		if s.What != w || s.Name != "x" {
			t.Errorf("drop %s = %+v", w, s)
		}
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', -3.5)").(*Insert)
	if s.Table != "t" || len(s.Rows) != 2 || len(s.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", s)
	}
	if lit := s.Rows[1][2].(*Lit); lit.F != -3.5 {
		t.Errorf("negative literal = %+v", lit)
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT a, b AS bee FROM t WHERE a > 3 LIMIT 10").(*SelectStmt)
	if len(s.Items) != 2 || s.Items[1].Alias != "bee" {
		t.Fatalf("items = %+v", s.Items)
	}
	if s.From[0].Name != "t" || s.Limit != 10 {
		t.Errorf("from/limit = %+v %d", s.From, s.Limit)
	}
	if s.Where.String() != "(a > 3)" {
		t.Errorf("where = %s", s.Where)
	}
}

func TestParseStarAndDistinct(t *testing.T) {
	s := mustParse(t, "SELECT DISTINCT * FROM t").(*SelectStmt)
	if !s.Distinct || !s.Items[0].Star {
		t.Errorf("distinct/star = %+v", s)
	}
}

func TestParseGroupHavingOrder(t *testing.T) {
	s := mustParse(t,
		`SELECT k, count(*) AS n, avg(v) FROM s GROUP BY k HAVING count(*) > 2 ORDER BY n DESC, k LIMIT 5`,
	).(*SelectStmt)
	if len(s.GroupBy) != 1 || s.Having == nil || len(s.OrderBy) != 2 {
		t.Fatalf("select = %+v", s)
	}
	if !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order dirs = %+v", s.OrderBy)
	}
	call := s.Items[1].Expr.(*CallExpr)
	if call.Name != "count" || !call.Star {
		t.Errorf("count(*) = %+v", call)
	}
}

func TestParseTupleWindow(t *testing.T) {
	s := mustParse(t, "SELECT sum(v) FROM s [SIZE 100 SLIDE 20]").(*SelectStmt)
	w := s.From[0].Window
	if w == nil || !w.Tuples || w.Size != 100 || w.Slide != 20 {
		t.Fatalf("window = %+v", w)
	}
	// Tumbling default.
	s = mustParse(t, "SELECT sum(v) FROM s [SIZE 50]").(*SelectStmt)
	if s.From[0].Window.Slide != 50 {
		t.Errorf("tumbling slide = %d", s.From[0].Window.Slide)
	}
}

func TestParseTimeWindow(t *testing.T) {
	s := mustParse(t, "SELECT count(*) FROM s [RANGE 5 MINUTES SLIDE 30 SECONDS ON ts]").(*SelectStmt)
	w := s.From[0].Window
	if w.Tuples || w.Range != 5*time.Minute || w.SlideDur != 30*time.Second || w.TimeCol != "ts" {
		t.Fatalf("time window = %+v", w)
	}
	if got := w.String(); !strings.Contains(got, "RANGE") {
		t.Errorf("window String = %q", got)
	}
}

func TestParseWindowValidation(t *testing.T) {
	if _, err := Parse("SELECT 1 FROM s [SIZE 10 SLIDE 3]"); err == nil {
		t.Error("slide not dividing size should fail")
	}
	if _, err := Parse("SELECT 1 FROM s [SIZE 10 SLIDE 20]"); err == nil {
		t.Error("slide > size should fail")
	}
	if _, err := Parse("SELECT 1 FROM s [RANGE 10 SECONDS SLIDE 3 SECONDS]"); err == nil {
		t.Error("time slide not dividing range should fail")
	}
	if _, err := Parse("SELECT 1 FROM s [FOO 1]"); err == nil {
		t.Error("bad window keyword should fail")
	}
	if _, err := Parse("SELECT 1 FROM s [RANGE 5 bananas]"); err == nil {
		t.Error("bad unit should fail")
	}
}

func TestParseJoins(t *testing.T) {
	s := mustParse(t,
		"SELECT a.x, b.y FROM a [SIZE 10], b [SIZE 10] WHERE a.k = b.k",
	).(*SelectStmt)
	if len(s.From) != 2 {
		t.Fatalf("from = %+v", s.From)
	}
	s = mustParse(t,
		"SELECT s.v, d.name FROM s [SIZE 10] JOIN d ON s.k = d.k WHERE d.region = 'eu'",
	).(*SelectStmt)
	if len(s.Joins) != 1 || s.Joins[0].Right.Name != "d" {
		t.Fatalf("joins = %+v", s.Joins)
	}
	if s.Joins[0].On.String() != "(s.k = d.k)" {
		t.Errorf("on = %s", s.Joins[0].On)
	}
}

func TestParseAliases(t *testing.T) {
	s := mustParse(t, "SELECT x.v FROM verylongname AS x").(*SelectStmt)
	if s.From[0].Alias != "x" {
		t.Errorf("alias = %+v", s.From[0])
	}
	s = mustParse(t, "SELECT x.v FROM verylongname x").(*SelectStmt)
	if s.From[0].Alias != "x" {
		t.Errorf("implicit alias = %+v", s.From[0])
	}
	s = mustParse(t, "SELECT v n FROM t").(*SelectStmt)
	if s.Items[0].Alias != "n" {
		t.Errorf("implicit item alias = %+v", s.Items[0])
	}
}

func TestParseRegisterQuery(t *testing.T) {
	s := mustParse(t,
		"REGISTER INCREMENTAL QUERY q1 AS SELECT sum(v) FROM s [SIZE 100 SLIDE 10]",
	).(*RegisterQuery)
	if s.Name != "q1" || s.Mode != "INCREMENTAL" || s.Select == nil {
		t.Fatalf("register = %+v", s)
	}
	s = mustParse(t, "REGISTER QUERY q2 AS SELECT v FROM s").(*RegisterQuery)
	if s.Mode != "" {
		t.Errorf("default mode = %q", s.Mode)
	}
	s = mustParse(t, "REGISTER REEVAL QUERY q3 AS SELECT v FROM s").(*RegisterQuery)
	if s.Mode != "REEVAL" {
		t.Errorf("reeval mode = %q", s.Mode)
	}
	s = mustParse(t, "REGISTER INCREMENTAL QUERY q5 TENANT acme AS SELECT v FROM s").(*RegisterQuery)
	if s.Tenant != "acme" {
		t.Errorf("TENANT = %+v", s)
	}
	// There is no executor knob between the name and AS, but "nofuse"
	// stays a legal column name.
	for _, src := range []string{
		"REGISTER QUERY q4 NOFUSE AS SELECT v FROM s",
		"REGISTER QUERY q4 TENANT acme NOFUSE AS SELECT v FROM s",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q parsed", src)
		}
	}
	sel := mustParse(t, "SELECT nofuse FROM s").(*SelectStmt)
	if sel.Items[0].Expr.String() != "nofuse" {
		t.Errorf("nofuse as column = %+v", sel.Items[0])
	}
}

func TestParseExprPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a + b * 2 FROM t").(*SelectStmt)
	if got := s.Items[0].Expr.String(); got != "(a + (b * 2))" {
		t.Errorf("precedence = %s", got)
	}
	s = mustParse(t, "SELECT (a + b) * 2 FROM t").(*SelectStmt)
	if got := s.Items[0].Expr.String(); got != "((a + b) * 2)" {
		t.Errorf("parens = %s", got)
	}
	s = mustParse(t, "SELECT a FROM t WHERE a > 1 AND b < 2 OR NOT c = 3").(*SelectStmt)
	if got := s.Where.String(); got != "(((a > 1) AND (b < 2)) OR (NOT (c = 3)))" {
		t.Errorf("logic precedence = %s", got)
	}
}

func TestParseCast(t *testing.T) {
	s := mustParse(t, "SELECT CAST(a AS FLOAT) FROM t").(*SelectStmt)
	c := s.Items[0].Expr.(*CastExpr)
	if c.Type != "FLOAT" {
		t.Errorf("cast = %+v", c)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	s := mustParse(t, "SELECT -a FROM t WHERE v > -5").(*SelectStmt)
	if got := s.Items[0].Expr.String(); got != "(0 - a)" {
		t.Errorf("unary minus on ident = %s", got)
	}
	if got := s.Where.String(); got != "(v > -5)" {
		t.Errorf("negative literal = %s", got)
	}
}

func TestParseModulo(t *testing.T) {
	s := mustParse(t, "SELECT a % 3 FROM t").(*SelectStmt)
	if got := s.Items[0].Expr.String(); got != "(a % 3)" {
		t.Errorf("modulo = %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"CREATE VIEW v",
		"CREATE TABLE t",
		"CREATE TABLE t (",
		"INSERT t VALUES (1)",
		"INSERT INTO t (1)",
		"DROP INDEX i",
		"REGISTER QUERY AS SELECT 1 FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t extra garbage here",
		"SELECT count( FROM t",
		"SELECT a FROM t JOIN",
		"SELECT a FROM t [SIZE 0]",
		"SELECT CAST(a AS) FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE STREAM s (ts TIMESTAMP, v FLOAT);
		REGISTER QUERY q AS SELECT sum(v) FROM s [SIZE 10];
		;
		SELECT 1 FROM t
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("script stmts = %d", len(stmts))
	}
	if _, err := ParseScript("SELECT 1 FROM t SELECT 2 FROM t"); err == nil {
		t.Error("missing semicolon should fail")
	}
	if _, err := ParseScript("SELECT '"); err == nil {
		t.Error("lex error should propagate")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT a FROM t;")
}

func TestLitString(t *testing.T) {
	cases := map[string]Expr{
		"7":      &Lit{Kind: 'i', I: 7},
		"'a''b'": &Lit{Kind: 's', S: "a'b"},
		"true":   &Lit{Kind: 'b', B: true},
		"false":  &Lit{Kind: 'b', B: false},
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Errorf("Lit.String() = %q, want %q", got, want)
		}
	}
}

func TestCallExprString(t *testing.T) {
	c := &CallExpr{Name: "sum", Args: []Expr{&Ident{Name: "v"}}}
	if c.String() != "sum(v)" {
		t.Errorf("call String = %q", c.String())
	}
	star := &CallExpr{Name: "count", Star: true}
	if star.String() != "count(*)" {
		t.Errorf("star String = %q", star.String())
	}
}

func TestParseSetTenantQuota(t *testing.T) {
	s := mustParse(t, "SET TENANT QUOTA acme MAX_QUERIES 4 APPEND_ROWS_PER_SEC 1500.5 LAG_WINDOWS 8").(*SetTenantQuota)
	if s.Tenant != "acme" || s.MaxQueries != 4 || s.AppendRowsPerSec != 1500.5 || s.LagWindows != 8 {
		t.Fatalf("set tenant quota = %+v", s)
	}
	// Clauses in any order, integer rate, lower-case keywords.
	s = mustParse(t, "set tenant quota beta lag_windows 2 append_rows_per_sec 1000 max_queries 1").(*SetTenantQuota)
	if s.Tenant != "beta" || s.MaxQueries != 1 || s.AppendRowsPerSec != 1000 || s.LagWindows != 2 {
		t.Fatalf("set tenant quota = %+v", s)
	}
	// The bare form clears every limit (zero value = unlimited).
	s = mustParse(t, "SET TENANT QUOTA acme").(*SetTenantQuota)
	if s.Tenant != "acme" || s.MaxQueries != 0 || s.AppendRowsPerSec != 0 || s.LagWindows != 0 {
		t.Fatalf("bare set tenant quota = %+v", s)
	}

	bad := []string{
		"SET",
		"SET TENANT acme",
		"SET TENANT QUOTA",
		"SET TENANT QUOTA acme BOGUS 3",
		"SET TENANT QUOTA acme MAX_QUERIES",
		"SET TENANT QUOTA acme MAX_QUERIES -1",
		"SET TENANT QUOTA acme APPEND_ROWS_PER_SEC x",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}

	// SET stays contextual: columns and streams named "set"/"quota" are legal.
	if _, err := Parse("SELECT set, quota FROM tenant"); err != nil {
		t.Errorf("contextual SET broke identifier use: %v", err)
	}
}
