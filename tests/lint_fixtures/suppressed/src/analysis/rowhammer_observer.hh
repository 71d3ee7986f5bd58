// Fixture: rule R3 (observer-const) suppression path. The path ends in
// analysis/rowhammer_observer.hh so the rule's scoping applies.
struct FixtureObserver
{
    void onActivate(const FixtureState &state, long now);
    // bh-lint: allow(observer-const) fixture exercises the suppression path
    void expire(FixtureState &state, long now);
};
