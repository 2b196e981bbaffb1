package sql

import (
	"fmt"
	"strings"
	"time"
)

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// ColumnDef is one column of a CREATE TABLE/STREAM definition.
type ColumnDef struct {
	Name string
	Type string // SQL type name, resolved to a bat.Kind by the catalog
}

// CreateTable is CREATE TABLE name (cols).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

func (*CreateTable) stmt() {}

// CreateStream is CREATE STREAM name (cols) [SHARD n [KEY col]] — the
// DataCell DDL extension that declares a stream and its input basket.
// SHARD partitions the basket into n shards for parallel ingestion and
// factory execution; KEY names the hash-partitioning column (round-robin
// without it).
type CreateStream struct {
	Name   string
	Cols   []ColumnDef
	Shards int    // 0 = engine default
	Key    string // partitioning column; "" = round-robin
}

func (*CreateStream) stmt() {}

// DropStmt is DROP TABLE/STREAM/QUERY name.
type DropStmt struct {
	What string // "TABLE", "STREAM" or "QUERY"
	Name string
}

func (*DropStmt) stmt() {}

// Insert is INSERT INTO name VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]Expr // literal expressions only
}

func (*Insert) stmt() {}

// SetTenantQuota is the DataCell admission-control DDL:
//
//	SET TENANT QUOTA name [MAX_QUERIES n] [APPEND_ROWS_PER_SEC r] [LAG_WINDOWS n]
//
// Every word after SET is contextual (they lex as identifiers), so
// columns named "tenant" or "quota" stay legal elsewhere. The three
// limit clauses mirror the engine's TenantQuota fields, may appear in
// any order, and default to 0 — unlimited — when omitted, so a bare
// SET TENANT QUOTA t clears every limit. Putting quotas in DDL means an
// -init script can restore them on restart alongside the schema.
type SetTenantQuota struct {
	Tenant           string
	MaxQueries       int64
	AppendRowsPerSec float64
	LagWindows       int64
}

func (*SetTenantQuota) stmt() {}

// RegisterQuery is the DataCell continuous-query registration:
//
//	REGISTER [INCREMENTAL|REEVAL] [ISOLATED] QUERY name [TENANT t] AS SELECT ...
//
// Mode selects between the paper's two execution modes; empty means let
// the optimizer choose (incremental when the plan supports it). ISOLATED
// (contextual, like SHARD/KEY in CREATE STREAM) opts the query out of
// shared multi-query execution: it keeps its own basket cursors and
// slicers instead of joining the stream's query group — the knob behind
// the grouped-vs-isolated fan-out benchmarks. TENANT (also contextual)
// attributes the query to a named tenant for quota accounting and
// admission control.
type RegisterQuery struct {
	Name     string
	Mode     string // "", "INCREMENTAL" or "REEVAL"
	Isolated bool
	Tenant   string // "" when untenanted
	Select   *SelectStmt
}

func (*RegisterQuery) stmt() {}

// SelectStmt is a (possibly continuous) SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection; Star marks "*".
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// FromItem is a table or stream reference, optionally windowed. A window
// spec on a table is rejected at bind time.
type FromItem struct {
	Name   string
	Alias  string
	Window *WindowSpec
}

// JoinClause is an explicit JOIN ... ON appended to the first FromItem.
type JoinClause struct {
	Right FromItem
	On    Expr
}

// WindowSpec is the bracketed stream window clause:
//
//	[SIZE n [SLIDE m]]                  — tuple-based window
//	[RANGE n UNIT [SLIDE m UNIT] [ON col]] — time-based window
//
// SLIDE defaults to the window size (a tumbling window). ON names the
// timestamp attribute for time windows and defaults to the stream's first
// TIMESTAMP column.
type WindowSpec struct {
	Tuples   bool
	Size     int64         // tuple count when Tuples
	Slide    int64         // tuple count when Tuples
	Range    time.Duration // when !Tuples
	SlideDur time.Duration // when !Tuples
	TimeCol  string        // optional, for time windows
}

// String renders the window spec back to SQL for plan printing.
func (w *WindowSpec) String() string {
	if w == nil {
		return ""
	}
	if w.Tuples {
		return fmt.Sprintf("[SIZE %d SLIDE %d]", w.Size, w.Slide)
	}
	on := ""
	if w.TimeCol != "" {
		on = " ON " + w.TimeCol
	}
	return fmt.Sprintf("[RANGE %v SLIDE %v%s]", w.Range, w.SlideDur, on)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is an unbound (name-based) SQL expression.
type Expr interface {
	fmt.Stringer
	expr()
}

// Ident is a possibly-qualified column reference (t.c or c).
type Ident struct {
	Qual string
	Name string
}

func (*Ident) expr() {}

// String implements fmt.Stringer.
func (e *Ident) String() string {
	if e.Qual != "" {
		return e.Qual + "." + e.Name
	}
	return e.Name
}

// Lit is a literal: integer, float, string or boolean.
type Lit struct {
	Kind byte // 'i', 'f', 's', 'b'
	I    int64
	F    float64
	S    string
	B    bool
}

func (*Lit) expr() {}

// String implements fmt.Stringer.
func (e *Lit) String() string {
	switch e.Kind {
	case 'i':
		return fmt.Sprintf("%d", e.I)
	case 'f':
		return fmt.Sprintf("%g", e.F)
	case 's':
		return "'" + strings.ReplaceAll(e.S, "'", "''") + "'"
	case 'b':
		if e.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// BinExpr is a binary operation: arithmetic (+ - * / %), comparison
// (= <> < <= > >=) or logical (AND OR).
type BinExpr struct {
	Op   string
	L, R Expr
}

func (*BinExpr) expr() {}

// String implements fmt.Stringer.
func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// NotExpr is NOT e.
type NotExpr struct{ E Expr }

func (*NotExpr) expr() {}

// String implements fmt.Stringer.
func (e *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", e.E) }

// CallExpr is a function or aggregate call; Star marks count(*).
type CallExpr struct {
	Name string
	Args []Expr
	Star bool
}

func (*CallExpr) expr() {}

// String implements fmt.Stringer.
func (e *CallExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// CastExpr is CAST(e AS type).
type CastExpr struct {
	E    Expr
	Type string
}

func (*CastExpr) expr() {}

// String implements fmt.Stringer.
func (e *CastExpr) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", e.E, e.Type)
}
