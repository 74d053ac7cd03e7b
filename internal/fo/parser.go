package fo

import (
	"fmt"
)

// ParseQuery parses a query declaration of the form
//
//	q(s:base, total:num) := exists i:base, p:num .
//	    (Products(i, s, p, total) and p * 0.9 <= total)
//
// The head lists the free variables with their sorts; a head of the form
// q() declares a Boolean query. The body grammar:
//
//	formula  := or ( "->" formula )?            implication, right-assoc
//	or       := and ( "or" and )*
//	and      := unary ( "and" unary )*
//	unary    := "not" unary
//	          | ("exists"|"forall") decls "." unary
//	          | primary
//	primary  := "true" | "false"
//	          | Rel "(" terms ")"               relation atom
//	          | term cmp term                   cmp ∈ <, <=, =, !=, >=, >, ==
//	          | "(" formula ")"
//	term     := mul (("+"|"-") mul)* ; mul := unaryT (("*"|"/") unaryT)*
//	unaryT   := "-" unaryT | number | "quoted base constant" | var | "(" term ")"
//
// "==" compares base-sorted terms; the arithmetic comparators compare
// numerical terms. Division is permitted by nonzero numeric literals only
// (it is a definable shortcut in the paper's language). "#" starts a
// comment to end of line.
func ParseQuery(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return q, nil
}

// MustParseQuery is ParseQuery that panics on error, for tests and
// statically known queries in examples.
func MustParseQuery(input string) *Query {
	q, err := ParseQuery(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token   { return p.toks[p.i] }
func (p *parser) next() token   { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool   { return p.peek().kind == tokEOF }
func (p *parser) save() int     { return p.i }
func (p *parser) restore(m int) { p.i = m }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("fo: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptSym(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.i++
	return t.text, nil
}

// query := ident "(" decls? ")" ":=" formula
func (p *parser) query() (*Query, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var free []FreeVar
	if !p.acceptSym(")") {
		for {
			v, srt, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			free = append(free, FreeVar{Name: v, Sort: srt})
			if p.acceptSym(")") {
				break
			}
			if err := p.expectSym(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectSym(":="); err != nil {
		return nil, err
	}
	body, err := p.formula()
	if err != nil {
		return nil, err
	}
	return &Query{Name: name, Free: free, Body: body}, nil
}

// keywords that cannot name variables.
var reservedWords = map[string]bool{
	"and": true, "or": true, "not": true,
	"exists": true, "forall": true, "true": true, "false": true,
}

// varDecl := ident ":" ("base"|"num")
func (p *parser) varDecl() (string, Sort, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", 0, err
	}
	if reservedWords[name] {
		return "", 0, p.errf("keyword %q cannot name a variable", name)
	}
	if err := p.expectSym(":"); err != nil {
		return "", 0, err
	}
	srt, err := p.expectIdent()
	if err != nil {
		return "", 0, err
	}
	switch srt {
	case "base":
		return name, SortBase, nil
	case "num":
		return name, SortNum, nil
	default:
		return "", 0, p.errf("expected sort base or num, found %q", srt)
	}
}

func (p *parser) formula() (Formula, error) {
	l, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptSym("->") {
		r, err := p.formula()
		if err != nil {
			return nil, err
		}
		return Implies{l, r}, nil
	}
	return l, nil
}

func (p *parser) orExpr() (Formula, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Or{l, r}
	}
	return l, nil
}

func (p *parser) andExpr() (Formula, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = And{l, r}
	}
	return l, nil
}

func (p *parser) unary() (Formula, error) {
	switch {
	case p.acceptKeyword("not"):
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Not{f}, nil
	case p.acceptKeyword("exists"):
		return p.quantified(true)
	case p.acceptKeyword("forall"):
		return p.quantified(false)
	default:
		return p.primary()
	}
}

// quantified parses "decl (, decl)* . formula" after the quantifier
// keyword. The quantifier scope extends as far right as possible, the
// standard convention; multiple binders are sugar for nested single
// quantifiers.
func (p *parser) quantified(existential bool) (Formula, error) {
	var decls []FreeVar
	for {
		v, srt, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		decls = append(decls, FreeVar{Name: v, Sort: srt})
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym("."); err != nil {
		return nil, err
	}
	body, err := p.formula()
	if err != nil {
		return nil, err
	}
	for i := len(decls) - 1; i >= 0; i-- {
		if existential {
			body = Exists{Var: decls[i].Name, Sort: decls[i].Sort, Body: body}
		} else {
			body = Forall{Var: decls[i].Name, Sort: decls[i].Sort, Body: body}
		}
	}
	return body, nil
}

func (p *parser) primary() (Formula, error) {
	if p.acceptKeyword("true") {
		return True{}, nil
	}
	if p.acceptKeyword("false") {
		return False{}, nil
	}
	// Relation atom: ident "(" ... — but an identifier can also start a
	// comparison term, and "(" can open either a parenthesized formula or a
	// parenthesized term. Try a comparison first, then fall back to a
	// parenthesized formula.
	if t := p.peek(); t.kind == tokIdent && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
		return p.relAtom()
	}
	mark := p.save()
	if f, err := p.comparison(); err == nil {
		return f, nil
	}
	p.restore(mark)
	if p.acceptSym("(") {
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	return nil, p.errf("expected formula, found %q", p.peek().text)
}

func (p *parser) relAtom() (Formula, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var args []Term
	if !p.acceptSym(")") {
		for {
			t, err := p.term()
			if err != nil {
				return nil, err
			}
			args = append(args, t)
			if p.acceptSym(")") {
				break
			}
			if err := p.expectSym(","); err != nil {
				return nil, err
			}
		}
	}
	return Atom{Rel: name, Args: args}, nil
}

func (p *parser) comparison() (Formula, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokSymbol {
		return nil, p.errf("expected comparison operator, found %q", t.text)
	}
	var op CmpOp
	switch t.text {
	case "<":
		op = Lt
	case "<=":
		op = Le
	case "=":
		op = EqNum
	case "!=":
		op = NeNum
	case ">=":
		op = Ge
	case ">":
		op = Gt
	case "==":
		p.i++
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		return BaseEq{l, r}, nil
	default:
		return nil, p.errf("expected comparison operator, found %q", t.text)
	}
	p.i++
	r, err := p.term()
	if err != nil {
		return nil, err
	}
	return Cmp{Op: op, L: l, R: r}, nil
}

func (p *parser) term() (Term, error) {
	l, err := p.mulTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("+"):
			r, err := p.mulTerm()
			if err != nil {
				return nil, err
			}
			l = Add{l, r}
		case p.acceptSym("-"):
			r, err := p.mulTerm()
			if err != nil {
				return nil, err
			}
			l = Sub{l, r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulTerm() (Term, error) {
	l, err := p.unaryTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("*"):
			r, err := p.unaryTerm()
			if err != nil {
				return nil, err
			}
			l = Mul{l, r}
		case p.acceptSym("/"):
			// Division is a shortcut: only by a nonzero numeric literal,
			// possibly negated.
			r, err := p.unaryTerm()
			if err != nil {
				return nil, err
			}
			c, ok := constValue(r)
			if !ok {
				return nil, p.errf("division is only supported by numeric literals, found %s", r)
			}
			if c == 0 {
				return nil, p.errf("division by zero literal")
			}
			l = Mul{l, NumConst{1 / c}}
		default:
			return l, nil
		}
	}
}

func constValue(t Term) (float64, bool) {
	switch x := t.(type) {
	case NumConst:
		return x.Value, true
	case Neg:
		c, ok := constValue(x.X)
		return -c, ok
	}
	return 0, false
}

func (p *parser) unaryTerm() (Term, error) {
	t := p.peek()
	switch {
	case t.kind == tokSymbol && t.text == "-":
		p.i++
		x, err := p.unaryTerm()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals so that constants carry their sign.
		if c, ok := x.(NumConst); ok {
			return NumConst{-c.Value}, nil
		}
		return Neg{x}, nil
	case t.kind == tokNumber:
		p.i++
		return NumConst{t.num}, nil
	case t.kind == tokString:
		p.i++
		return BaseConst{t.text}, nil
	case t.kind == tokIdent:
		// Keywords cannot be used as variables.
		switch t.text {
		case "and", "or", "not", "exists", "forall", "true", "false":
			return nil, p.errf("keyword %q cannot be a term", t.text)
		}
		p.i++
		return Var{t.text}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.i++
		x, err := p.term()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, p.errf("expected term, found %q", t.text)
	}
}
