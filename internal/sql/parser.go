package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SQL statement.
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// allow one trailing semicolon
	if p.peek().Kind == TokenOp && p.peek().Text == ";" {
		p.next()
	}
	if p.peek().Kind != TokenEOF {
		return nil, p.errorf("unexpected %q after statement", p.peek().Text)
	}
	return stmt, nil
}

type parser struct {
	toks  []Token
	pos   int
	input string
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at offset %d in %q)", fmt.Sprintf(format, args...), p.peek().Pos, truncate(p.input, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) accept(kw string) bool {
	t := p.peek()
	if (t.Kind == TokenKeyword && t.Text == kw) || (t.Kind == TokenOp && t.Text == kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kw string) error {
	if !p.accept(kw) {
		return p.errorf("expected %q, found %q", kw, p.peek().Text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokenIdent {
		return "", p.errorf("expected identifier, found %q", t.Text)
	}
	p.next()
	return t.Text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	if p.accept("EXPLAIN") {
		analyze := p.accept("ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	}
	if p.accept("SHOW") {
		if err := p.expect("TABLES"); err != nil {
			return nil, err
		}
		if err := p.expect("FROM"); err != nil {
			return nil, err
		}
		catalog, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect("."); err != nil {
			return nil, err
		}
		schema, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ShowTables{Catalog: catalog, Schema: schema}, nil
	}
	if p.peek().Kind == TokenKeyword && p.peek().Text == "SELECT" {
		return p.parseQuery()
	}
	return nil, p.errorf("expected SELECT, EXPLAIN or SHOW, found %q", p.peek().Text)
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Items = append(q.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if p.accept("FROM") {
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From = from
	}
	if p.accept("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, g)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Having = h
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		t := p.peek()
		if t.Kind != TokenNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", t.Text)
		}
		q.Limit = &n
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.peek().Kind == TokenOp && p.peek().Text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokenIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.accept("CROSS"):
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			jt = CrossJoin
		case p.accept("INNER"):
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			jt = InnerJoin
		case p.accept("LEFT"):
			p.accept("OUTER")
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			jt = LeftJoin
		case p.accept("JOIN"):
			jt = InnerJoin
		case p.accept(","):
			jt = CrossJoin
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			left = &Join{Type: jt, Left: left, Right: right}
			continue
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &Join{Type: jt, Left: left, Right: right}
		if jt != CrossJoin {
			if err := p.expect("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	if p.accept("(") {
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		alias := ""
		if p.accept("AS") {
			alias, err = p.expectIdent()
			if err != nil {
				return nil, err
			}
		} else if p.peek().Kind == TokenIdent {
			alias = p.next().Text
		}
		if alias == "" {
			return nil, p.errorf("subquery in FROM requires an alias")
		}
		return &Subquery{Query: q, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	parts := []string{name}
	for p.peek().Kind == TokenOp && p.peek().Text == "." {
		p.next()
		part, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	if len(parts) > 3 {
		return nil, p.errorf("table name %s has more than 3 parts", strings.Join(parts, "."))
	}
	t := &TableName{Parts: parts}
	if p.accept("AS") {
		t.Alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	} else if p.peek().Kind == TokenIdent {
		t.Alias = p.next().Text
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Expression parsing (precedence climbing).

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokenOp {
			switch t.Text {
			case "=", "<>", "!=", "<", "<=", ">", ">=":
				p.next()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				op := t.Text
				if op == "!=" {
					op = "<>"
				}
				left = &Binary{Op: op, Left: left, Right: right}
				continue
			}
		}
		if t.Kind == TokenKeyword {
			switch t.Text {
			case "LIKE":
				p.next()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &Binary{Op: "LIKE", Left: left, Right: right}
				continue
			case "IS":
				p.next()
				not := p.accept("NOT")
				if err := p.expect("NULL"); err != nil {
					return nil, err
				}
				left = &IsNull{Expr: left, Not: not}
				continue
			case "BETWEEN":
				p.next()
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expect("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &Between{Expr: left, Lo: lo, Hi: hi}
				continue
			case "IN":
				p.next()
				if err := p.expect("("); err != nil {
					return nil, err
				}
				var list []Expr
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					list = append(list, e)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				left = &InList{Expr: left, List: list}
				continue
			case "NOT":
				// x NOT LIKE / NOT BETWEEN / NOT IN
				p.next()
				switch {
				case p.accept("LIKE"):
					right, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					left = &Unary{Op: "NOT", Expr: &Binary{Op: "LIKE", Left: left, Right: right}}
				case p.accept("BETWEEN"):
					lo, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					if err := p.expect("AND"); err != nil {
						return nil, err
					}
					hi, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					left = &Between{Expr: left, Lo: lo, Hi: hi, Not: true}
				case p.accept("IN"):
					if err := p.expect("("); err != nil {
						return nil, err
					}
					var list []Expr
					for {
						e, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						list = append(list, e)
						if !p.accept(",") {
							break
						}
					}
					if err := p.expect(")"); err != nil {
						return nil, err
					}
					left = &InList{Expr: left, List: list, Not: true}
				default:
					return nil, p.errorf("expected LIKE, BETWEEN or IN after NOT")
				}
				continue
			}
		}
		return left, nil
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokenOp && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokenOp && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokenOp && t.Text == "-" {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", Expr: e}, nil
	}
	if t.Kind == TokenOp && t.Text == "+" {
		p.next()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &Literal{Value: f}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return &Literal{Value: n}, nil
	case TokenString:
		p.next()
		return &Literal{Value: t.Text}, nil
	case TokenKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: nil}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: false}, nil
		case "DATE":
			p.next()
			s := p.peek()
			if s.Kind != TokenString {
				return nil, p.errorf("expected string after DATE")
			}
			p.next()
			return &Literal{Value: s.Text, IsDate: true}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.next()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			// type name: ident possibly with (...) — capture raw tokens
			typeName, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &Cast{Expr: e, TypeName: typeName}, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)
	case TokenIdent:
		p.next()
		// function call?
		if p.peek().Kind == TokenOp && p.peek().Text == "(" {
			p.next()
			fc := &FuncCall{Name: t.Text}
			if p.peek().Kind == TokenOp && p.peek().Text == "*" {
				p.next()
				fc.Star = true
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.peek().Kind == TokenOp && p.peek().Text == ")" {
				p.next()
				return fc, nil
			}
			if p.accept("DISTINCT") {
				fc.Distinct = true
			}
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, arg)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		parts := []string{t.Text}
		for p.peek().Kind == TokenOp && p.peek().Text == "." {
			p.next()
			part, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		}
		return &Ident{Parts: parts}, nil
	case TokenOp:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

func (p *parser) parseTypeName() (string, error) {
	t := p.peek()
	var name string
	if t.Kind == TokenIdent {
		name = t.Text
	} else if t.Kind == TokenKeyword && t.Text == "DATE" {
		name = "date"
	} else {
		return "", p.errorf("expected type name, found %q", t.Text)
	}
	p.next()
	// Nested types like array(bigint): consume balanced parens verbatim.
	if p.peek().Kind == TokenOp && p.peek().Text == "(" {
		depth := 0
		var sb strings.Builder
		sb.WriteString(name)
		for {
			tok := p.peek()
			if tok.Kind == TokenEOF {
				return "", p.errorf("unterminated type in CAST")
			}
			if tok.Kind == TokenOp && tok.Text == "(" {
				depth++
			}
			if tok.Kind == TokenOp && tok.Text == ")" {
				if depth == 0 {
					break
				}
				depth--
			}
			p.next()
			if tok.Kind == TokenOp && tok.Text == "," {
				sb.WriteString(", ")
			} else if tok.Kind == TokenKeyword {
				sb.WriteString(strings.ToLower(tok.Text))
			} else {
				sb.WriteString(tok.Text)
			}
			if depth == 0 {
				break
			}
		}
		return sb.String(), nil
	}
	return name, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expect("CASE"); err != nil {
		return nil, err
	}
	c := &Case{}
	for p.accept("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expect("END"); err != nil {
		return nil, err
	}
	return c, nil
}
