package sql

import (
	"fmt"
	"strconv"
	"time"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf("trailing input starting at %q", p.cur().Text)
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements,
// ignoring empty statements.
func ParseScript(src string) ([]Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var out []Stmt
	for !p.at(TokEOF, "") {
		if p.accept(TokSymbol, ";") {
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.accept(TokSymbol, ";") && !p.at(TokEOF, "") {
			return nil, p.errf("expected ';' between statements, got %q", p.cur().Text)
		}
	}
	return out, nil
}

type parser struct {
	toks []Token
	pos  int
	src  string
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k TokKind, text string) bool {
	t := p.cur()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *parser) accept(k TokKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k TokKind, text string) (Token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = [...]string{"EOF", "identifier", "keyword", "integer", "float", "string", "symbol"}[k]
	}
	return Token{}, p.errf("expected %s, got %q", want, p.cur().Text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "REGISTER"):
		return p.parseRegister()
	case p.at(TokIdent, "set"):
		// SET is contextual: it only means anything at statement start, so
		// columns named "set" stay legal everywhere else.
		return p.parseSet()
	default:
		return nil, p.errf("unexpected %q at start of statement", p.cur().Text)
	}
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	isStream := false
	switch {
	case p.accept(TokKeyword, "TABLE"):
	case p.accept(TokKeyword, "STREAM"):
		isStream = true
	default:
		return nil, p.errf("expected TABLE or STREAM after CREATE")
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cn, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		// Type names lex as identifiers (INT, FLOAT, ...) or keywords
		// in no case here; accept an identifier.
		tt := p.cur()
		if tt.Kind != TokIdent && tt.Kind != TokKeyword {
			return nil, p.errf("expected type name, got %q", tt.Text)
		}
		p.next()
		cols = append(cols, ColumnDef{Name: cn.Text, Type: upper(tt.Text)})
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	if isStream {
		st := &CreateStream{Name: name.Text, Cols: cols}
		// Optional SHARD n [KEY col]. SHARD and KEY are contextual (they
		// lex as identifiers), so columns of those names stay legal.
		if p.accept(TokIdent, "shard") {
			t, err := p.expect(TokInt, "")
			if err != nil {
				return nil, err
			}
			v, err := strconv.ParseInt(t.Text, 10, 32)
			if err != nil || v < 1 {
				return nil, p.errf("SHARD count must be a positive integer, got %q", t.Text)
			}
			st.Shards = int(v)
			if p.accept(TokIdent, "key") {
				kc, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				st.Key = kc.Text
			}
		}
		return st, nil
	}
	return &CreateTable{Name: name.Text, Cols: cols}, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.next() // DROP
	var what string
	switch {
	case p.accept(TokKeyword, "TABLE"):
		what = "TABLE"
	case p.accept(TokKeyword, "STREAM"):
		what = "STREAM"
	case p.accept(TokKeyword, "QUERY"):
		what = "QUERY"
	default:
		return nil, p.errf("expected TABLE, STREAM or QUERY after DROP")
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	return &DropStmt{What: what, Name: name.Text}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: name.Text}
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseRegister() (Stmt, error) {
	p.next() // REGISTER
	mode := ""
	switch {
	case p.accept(TokKeyword, "INCREMENTAL"):
		mode = "INCREMENTAL"
	case p.accept(TokKeyword, "REEVAL"):
		mode = "REEVAL"
	}
	// ISOLATED is contextual (not reserved), so columns named "isolated"
	// stay legal elsewhere.
	isolated := p.accept(TokIdent, "isolated")
	if _, err := p.expect(TokKeyword, "QUERY"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	// TENANT is contextual too: it only has meaning between the query name
	// and AS, so columns named "tenant" stay legal elsewhere.
	tenant := ""
	if p.accept(TokIdent, "tenant") {
		t, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		tenant = t.Text
	}
	if _, err := p.expect(TokKeyword, "AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &RegisterQuery{Name: name.Text, Mode: mode, Isolated: isolated, Tenant: tenant, Select: sel.(*SelectStmt)}, nil
}

// parseSet parses SET TENANT QUOTA name with its optional limit clauses
// (any order, each at most meaningful once — last occurrence wins, like
// repeated flags). The limit keywords are contextual identifiers.
func (p *parser) parseSet() (Stmt, error) {
	p.next() // set
	if !p.accept(TokIdent, "tenant") {
		return nil, p.errf("expected TENANT after SET")
	}
	if !p.accept(TokIdent, "quota") {
		return nil, p.errf("expected QUOTA after SET TENANT")
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	st := &SetTenantQuota{Tenant: name.Text}
	for {
		switch {
		case p.accept(TokIdent, "max_queries"):
			n, err := p.parseNonNegInt()
			if err != nil {
				return nil, err
			}
			st.MaxQueries = n
		case p.accept(TokIdent, "append_rows_per_sec"):
			r, err := p.parseNonNegNumber()
			if err != nil {
				return nil, err
			}
			st.AppendRowsPerSec = r
		case p.accept(TokIdent, "lag_windows"):
			n, err := p.parseNonNegInt()
			if err != nil {
				return nil, err
			}
			st.LagWindows = n
		default:
			if p.at(TokIdent, "") {
				return nil, p.errf("unknown quota clause %q (want MAX_QUERIES, APPEND_ROWS_PER_SEC or LAG_WINDOWS)", p.cur().Text)
			}
			return st, nil
		}
	}
}

func (p *parser) parseNonNegInt() (int64, error) {
	t, err := p.expect(TokInt, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil || v < 0 {
		return 0, p.errf("expected non-negative integer, got %q", t.Text)
	}
	return v, nil
}

// parseNonNegNumber accepts an integer or float literal (rates read
// naturally either way: APPEND_ROWS_PER_SEC 1000 or 0.5).
func (p *parser) parseNonNegNumber() (float64, error) {
	t := p.cur()
	if t.Kind != TokInt && t.Kind != TokFloat {
		return 0, p.errf("expected number, got %q", t.Text)
	}
	p.next()
	v, err := strconv.ParseFloat(t.Text, 64)
	if err != nil || v < 0 {
		return 0, p.errf("expected non-negative number, got %q", t.Text)
	}
	return v, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, fi)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	for p.at(TokKeyword, "JOIN") || p.at(TokKeyword, "INNER") {
		p.accept(TokKeyword, "INNER")
		if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
			return nil, err
		}
		right, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, JoinClause{Right: right, On: on})
	}
	if p.accept(TokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokInt, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || v < 0 {
			return nil, p.errf("bad LIMIT %q", t.Text)
		}
		s.Limit = v
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		a, err := p.expect(TokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.Text
	} else if p.at(TokIdent, "") {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Name: name.Text}
	if p.accept(TokSymbol, "[") {
		w, err := p.parseWindowSpec()
		if err != nil {
			return FromItem{}, err
		}
		fi.Window = w
	}
	if p.accept(TokKeyword, "AS") {
		a, err := p.expect(TokIdent, "")
		if err != nil {
			return FromItem{}, err
		}
		fi.Alias = a.Text
	} else if p.at(TokIdent, "") {
		fi.Alias = p.next().Text
	}
	return fi, nil
}

func (p *parser) parseWindowSpec() (*WindowSpec, error) {
	w := &WindowSpec{}
	switch {
	case p.accept(TokKeyword, "SIZE"):
		w.Tuples = true
		n, err := p.parsePosInt()
		if err != nil {
			return nil, err
		}
		w.Size = n
		w.Slide = n // tumbling by default
		if p.accept(TokKeyword, "SLIDE") {
			m, err := p.parsePosInt()
			if err != nil {
				return nil, err
			}
			w.Slide = m
		}
	case p.accept(TokKeyword, "RANGE"):
		d, err := p.parseDuration()
		if err != nil {
			return nil, err
		}
		w.Range = d
		w.SlideDur = d
		if p.accept(TokKeyword, "SLIDE") {
			sd, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			w.SlideDur = sd
		}
		if p.accept(TokKeyword, "ON") {
			c, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			w.TimeCol = c.Text
		}
	default:
		return nil, p.errf("expected SIZE or RANGE in window spec")
	}
	if _, err := p.expect(TokSymbol, "]"); err != nil {
		return nil, err
	}
	if w.Tuples && (w.Slide > w.Size || w.Size%w.Slide != 0) {
		return nil, p.errf("window SLIDE must divide SIZE (got SIZE %d SLIDE %d)", w.Size, w.Slide)
	}
	if !w.Tuples && (w.SlideDur > w.Range || w.Range%w.SlideDur != 0) {
		return nil, p.errf("window SLIDE must divide RANGE (got RANGE %v SLIDE %v)", w.Range, w.SlideDur)
	}
	return w, nil
}

func (p *parser) parsePosInt() (int64, error) {
	t, err := p.expect(TokInt, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil || v <= 0 {
		return 0, p.errf("expected positive integer, got %q", t.Text)
	}
	return v, nil
}

func (p *parser) parseDuration() (time.Duration, error) {
	n, err := p.parsePosInt()
	if err != nil {
		return 0, err
	}
	t := p.cur()
	if t.Kind != TokKeyword {
		return 0, p.errf("expected time unit, got %q", t.Text)
	}
	var unit time.Duration
	switch t.Text {
	case "MICROSECOND", "MICROSECONDS":
		unit = time.Microsecond
	case "MILLISECOND", "MILLISECONDS":
		unit = time.Millisecond
	case "SECOND", "SECONDS":
		unit = time.Second
	case "MINUTE", "MINUTES":
		unit = time.Minute
	case "HOUR", "HOURS":
		unit = time.Hour
	default:
		return 0, p.errf("expected time unit, got %q", t.Text)
	}
	p.next()
	return time.Duration(n) * unit, nil
}

// Expression grammar, loosest binding first:
//
//	expr    = orExpr
//	orExpr  = andExpr { OR andExpr }
//	andExpr = notExpr { AND notExpr }
//	notExpr = [NOT] cmpExpr
//	cmpExpr = addExpr [ cmpOp addExpr ]
//	addExpr = mulExpr { (+|-) mulExpr }
//	mulExpr = unary { (*|/|%) unary }
//	unary   = [-] primary
//	primary = literal | call | CAST | ident[.ident] | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(TokSymbol, op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokSymbol, "+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "+", L: l, R: r}
		case p.accept(TokSymbol, "-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "*"):
			op = "*"
		case p.accept(TokSymbol, "/"):
			op = "/"
		case p.accept(TokSymbol, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Constant-fold negative literals.
		if lit, ok := e.(*Lit); ok {
			switch lit.Kind {
			case 'i':
				return &Lit{Kind: 'i', I: -lit.I}, nil
			case 'f':
				return &Lit{Kind: 'f', F: -lit.F}, nil
			}
		}
		return &BinExpr{Op: "-", L: &Lit{Kind: 'i', I: 0}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.Text)
		}
		return &Lit{Kind: 'i', I: v}, nil
	case TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.Text)
		}
		return &Lit{Kind: 'f', F: v}, nil
	case TokString:
		p.next()
		return &Lit{Kind: 's', S: t.Text}, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &Lit{Kind: 'b', B: true}, nil
		case "FALSE":
			p.next()
			return &Lit{Kind: 'b', B: false}, nil
		case "CAST":
			p.next()
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokKeyword, "AS"); err != nil {
				return nil, err
			}
			tt := p.cur()
			if tt.Kind != TokIdent && tt.Kind != TokKeyword {
				return nil, p.errf("expected type name in CAST")
			}
			p.next()
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return &CastExpr{E: e, Type: upper(tt.Text)}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)
	case TokIdent:
		p.next()
		// Function call?
		if p.accept(TokSymbol, "(") {
			call := &CallExpr{Name: t.Text}
			if p.accept(TokSymbol, "*") {
				call.Star = true
				if _, err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if !p.accept(TokSymbol, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(TokSymbol, ",") {
						continue
					}
					break
				}
				if _, err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified name?
		if p.accept(TokSymbol, ".") {
			c, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			return &Ident{Qual: t.Text, Name: c.Text}, nil
		}
		return &Ident{Name: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %q in expression", t.Text)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
