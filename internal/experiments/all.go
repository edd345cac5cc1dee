package experiments

// Artifact is one regenerated paper artifact.
type Artifact struct {
	ID   string
	Text string
}

// All regenerates every table and figure in paper order.
func All() ([]Artifact, error) {
	var out []Artifact
	add := func(id, text string) { out = append(out, Artifact{ID: id, Text: text}) }

	_, fig1, err := Fig1()
	if err != nil {
		return nil, err
	}
	add("fig1", fig1)

	_, fig2, err := Fig2()
	if err != nil {
		return nil, err
	}
	add("fig2", fig2)

	add("fig3", Fig3())

	add("table1", TableI().Render())

	for _, top := range Machines() {
		fig4, err := Fig4(top)
		if err != nil {
			return nil, err
		}
		add("fig4", fig4.Render())
	}
	t2, err := TableII()
	if err != nil {
		return nil, err
	}
	add("table2", t2.Render())

	for _, top := range Machines() {
		fig5, err := Fig5(top)
		if err != nil {
			return nil, err
		}
		add("fig5", fig5.Render())
	}
	t3, err := TableIII()
	if err != nil {
		return nil, err
	}
	add("table3", t3.Render())

	for _, top := range Machines() {
		fig6, err := Fig6(top)
		if err != nil {
			return nil, err
		}
		add("fig6", fig6.Render())
	}
	t4, err := TableIV()
	if err != nil {
		return nil, err
	}
	add("table4", t4.Render())

	strat, err := StrategyTable()
	if err != nil {
		return nil, err
	}
	add("strategies", strat.Render())

	summary, err := Summary()
	if err != nil {
		return nil, err
	}
	add("summary", summary.Render())
	return out, nil
}
