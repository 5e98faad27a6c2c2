package analyze

// Suite returns the repo's production analyzer set, configured for this
// module's packages and contracts. cmd/selfstab-lint runs exactly this
// suite; the analyzer tests run the same constructors against fixture
// configurations.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewDetRand(DefaultDetRandConfig()),
		NewMapOrder(DefaultMapOrderConfig()),
		NewJournalChoke(DefaultJournalChokeConfig()),
		NewHotPath(),
		NewObsPure(DefaultObsPureConfig()),
		NewTestOnly(),
	}
}
