// Fixture: rule R3 (observer-const) flags mutable observer parameters.
// The path mimics src/analysis/rowhammer_observer.hh so the rule's
// scoping applies; never compiled.
struct FixtureObserver
{
    void onActivate(FixtureState &state, long now);
    void onRowRefresh(const FixtureState &state, long now);
    void onAutoRefresh(const FixtureState *state, unsigned rows);
};
