/**
 * @file
 * bh_lint unit tests: lexer behavior, each rule against its fixtures
 * under tests/lint_fixtures/ (a failing fixture and a passing one with
 * suppressions per rule), suppression-grammar errors, and the baseline
 * round trip. Fixture files are never compiled — collectSources skips
 * them and the build globs only test_*.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/lint.hh"

using namespace bh::lint;

namespace
{

std::string
fixturePath(const std::string &rel)
{
    return std::string(BH_LINT_FIXTURES) + "/" + rel;
}

LexedFile
lexFixture(const std::string &rel)
{
    LexedFile lf;
    std::string err;
    EXPECT_TRUE(lexFile(fixturePath(rel), lf, err)) << err;
    return lf;
}

std::vector<Finding>
lintFixture(const std::string &rel)
{
    return lintFile(lexFixture(rel));
}

int
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<int>(std::count_if(
        findings.begin(), findings.end(),
        [&](const Finding &f) { return f.rule == rule; }));
}

bool
hasFindingAt(const std::vector<Finding> &findings, const std::string &rule,
             int line)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) {
                           return f.rule == rule && f.line == line;
                       });
}

} // namespace

// ---------------------------------------------------------------- lexer

TEST(LintLexer, TokenizesIdentifiersPunctuatorsAndScopes)
{
    auto lf = lex("t.cc", "std::vector<std::pair<int, int>> v;\n");
    // `::` and `>>` must each be single tokens; `<` separate.
    std::vector<std::string> texts;
    for (const auto &t : lf.tokens)
        texts.push_back(t.text);
    EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
    EXPECT_NE(std::find(texts.begin(), texts.end(), ">>"), texts.end());
    EXPECT_NE(std::find(texts.begin(), texts.end(), "<"), texts.end());
}

TEST(LintLexer, CapturesCommentsWithOwnLineFlag)
{
    auto lf = lex("t.cc", "int a; // trailing\n  // own line\nint b;\n");
    ASSERT_EQ(lf.comments.size(), 2u);
    EXPECT_FALSE(lf.comments[0].ownLine);
    EXPECT_EQ(lf.comments[0].line, 1);
    EXPECT_TRUE(lf.comments[1].ownLine);
    EXPECT_EQ(lf.comments[1].line, 2);
}

TEST(LintLexer, JoinsPreprocessorContinuations)
{
    auto lf = lex("t.cc", "#define X \\\n  1\nint y;\n");
    ASSERT_FALSE(lf.tokens.empty());
    EXPECT_EQ(lf.tokens[0].kind, Token::Kind::kPreproc);
    EXPECT_NE(lf.tokens[0].text.find("define"), std::string::npos);
    // The joined line must not swallow the following code.
    EXPECT_GE(lf.tokens.size(), 4u);    // preproc + int + y + ;
}

TEST(LintLexer, RawStringsDoNotConfuseTokenization)
{
    auto lf = lex("t.cc", "auto s = R\"(rand() \"quoted\")\";\nint z;\n");
    int idents = 0;
    for (const auto &t : lf.tokens)
        if (t.kind == Token::Kind::kIdent && t.text == "rand")
            ++idents;
    EXPECT_EQ(idents, 0) << "rand inside a raw string must stay a string";
}

// ---------------------------------------------------------------- rules

TEST(LintRules, NondetBadFixtureFlagsEachSource)
{
    auto findings = lintFixture("src/nondet_bad.cc");
    EXPECT_TRUE(hasFindingAt(findings, "nondet", 10));   // rand()
    EXPECT_TRUE(hasFindingAt(findings, "nondet", 16));   // time()
    EXPECT_TRUE(hasFindingAt(findings, "nondet", 22));   // steady_clock::now
    EXPECT_TRUE(hasFindingAt(findings, "nondet", 26));   // pointer map key
    EXPECT_EQ(countRule(findings, "nondet"), 4);
}

TEST(LintRules, NondetOkFixtureIsCleanViaSuppressions)
{
    EXPECT_TRUE(lintFixture("src/nondet_ok.cc").empty());
}

TEST(LintRules, UnorderedBadFixtureFlagsDirectAndNestedWalks)
{
    auto findings = lintFixture("src/unordered_bad.cc");
    EXPECT_TRUE(hasFindingAt(findings, "unordered-iter", 11));  // range-for
    EXPECT_TRUE(hasFindingAt(findings, "unordered-iter", 13));  // .begin()
    // The vector-of-maps outer walk must NOT be flagged...
    EXPECT_FALSE(hasFindingAt(findings, "unordered-iter", 23));
    // ...but the tainted loop variable's inner walk must be.
    EXPECT_TRUE(hasFindingAt(findings, "unordered-iter", 25));
    EXPECT_EQ(countRule(findings, "unordered-iter"), 3);
}

TEST(LintRules, UnorderedOkFixtureIsCleanViaSortedHelpers)
{
    EXPECT_TRUE(lintFixture("src/unordered_ok.cc").empty());
}

TEST(LintRules, TraceGateBadFixtureFlagsUngatedAndNegatedGate)
{
    auto findings = lintFixture("src/trace_gate_bad.cc");
    EXPECT_TRUE(hasFindingAt(findings, "trace-gate", 7));
    EXPECT_TRUE(hasFindingAt(findings, "trace-gate", 15));
    EXPECT_EQ(countRule(findings, "trace-gate"), 2);
}

TEST(LintRules, TraceGateOkFixtureIsClean)
{
    EXPECT_TRUE(lintFixture("src/trace_gate_ok.cc").empty());
}

TEST(LintRules, ObserverConstBadFixtureFlagsMutableParam)
{
    auto findings = lintFixture("src/analysis/rowhammer_observer.hh");
    EXPECT_EQ(countRule(findings, "observer-const"), 1);
    EXPECT_TRUE(hasFindingAt(findings, "observer-const", 6));
}

TEST(LintRules, ObserverConstOkFixtureIsCleanViaSuppression)
{
    EXPECT_TRUE(
        lintFixture("suppressed/src/analysis/rowhammer_observer.hh").empty());
}

TEST(LintRules, RngBadFixtureFlagsEngineIncludeAndImpureSeed)
{
    auto findings = lintFixture("src/rng_bad.cc");
    EXPECT_TRUE(hasFindingAt(findings, "rng-discipline", 3));   // <random>
    EXPECT_TRUE(hasFindingAt(findings, "rng-discipline", 10));  // mt19937
    EXPECT_TRUE(hasFindingAt(findings, "rng-discipline", 17));  // Rng(time())
}

TEST(LintRules, RngOkFixtureIsClean)
{
    EXPECT_TRUE(lintFixture("src/rng_ok.cc").empty());
}

TEST(LintRules, MemberInitBadFixtureFlagsOnlyUninitialized)
{
    auto findings = lintFixture("src/member_bad.hh");
    EXPECT_TRUE(hasFindingAt(findings, "member-init", 5));  // acts
    EXPECT_TRUE(hasFindingAt(findings, "member-init", 6));  // rate
    EXPECT_TRUE(hasFindingAt(findings, "member-init", 7));  // scratch
    EXPECT_EQ(countRule(findings, "member-init"), 3);
}

TEST(LintRules, MemberInitOkFixtureIsClean)
{
    EXPECT_TRUE(lintFixture("src/member_ok.hh").empty());
}

// --------------------------------------------------------- suppressions

TEST(LintSuppressions, MalformedAnnotationsAreFindings)
{
    auto findings = lintFixture("src/bad_suppression.cc");
    EXPECT_EQ(countRule(findings, "bad-suppression"), 3);
    EXPECT_TRUE(hasFindingAt(findings, "bad-suppression", 2)); // no reason
    EXPECT_TRUE(hasFindingAt(findings, "bad-suppression", 5)); // bad rule
    EXPECT_TRUE(hasFindingAt(findings, "bad-suppression", 8)); // bad verb
}

TEST(LintSuppressions, SuppressionOnWrongLineDoesNotCover)
{
    // The annotation sits two lines above the finding: not covered.
    auto lf = lex("src/t.cc",
                  "// bh-lint: allow(nondet) too far away\n"
                  "\n"
                  "long f() { return time(nullptr); }\n");
    auto findings = lintFile(lf);
    EXPECT_EQ(countRule(findings, "nondet"), 1);
}

TEST(LintSuppressions, TrailingAnnotationMustBeOnTheFindingLine)
{
    auto lf = lex("src/t.cc",
                  "long f() { return time(nullptr); } "
                  "// bh-lint: allow(nondet) same line\n");
    EXPECT_TRUE(lintFile(lf).empty());
}

// ------------------------------------------------------------- pairing

TEST(LintPairing, HeaderMembersTaintThePairedSource)
{
    std::vector<std::string> files = {"src/header_pair.hh",
                                      "src/header_pair.cc"};
    std::vector<std::string> ioErrors;
    auto findings = runLint(BH_LINT_FIXTURES, files, &ioErrors);
    EXPECT_TRUE(ioErrors.empty());
    bool inCc = std::any_of(findings.begin(), findings.end(),
                            [](const Finding &f) {
                                return f.rule == "unordered-iter"
                                    && f.path == "src/header_pair.cc";
                            });
    EXPECT_TRUE(inCc)
        << "iteration over a member declared in the paired header";
}

// ------------------------------------------------------------ baseline

TEST(LintBaseline, RoundTripAbsorbsExactlyTheBaselinedFindings)
{
    auto findings = lintFixture("src/member_bad.hh");
    ASSERT_EQ(findings.size(), 3u);

    std::string text = formatBaseline(findings);
    std::vector<BaselineEntry> entries;
    std::string err;
    ASSERT_TRUE(parseBaseline(text, entries, err)) << err;
    EXPECT_EQ(entries.size(), 3u);

    std::vector<Finding> baselined;
    auto fresh = filterBaseline(findings, entries, &baselined);
    EXPECT_TRUE(fresh.empty());
    EXPECT_EQ(baselined.size(), 3u);
}

TEST(LintBaseline, ChangedLineInvalidatesTheBaselineEntry)
{
    auto findings = lintFixture("src/member_bad.hh");
    ASSERT_FALSE(findings.empty());
    std::string text = formatBaseline(findings);
    std::vector<BaselineEntry> entries;
    std::string err;
    ASSERT_TRUE(parseBaseline(text, entries, err)) << err;

    // Simulate the offending line changing: the hash no longer matches,
    // so the finding resurfaces as fresh.
    findings[0].lineText += " /* edited */";
    auto fresh = filterBaseline(findings, entries);
    EXPECT_EQ(fresh.size(), 1u);
}

TEST(LintBaseline, EachEntryAbsorbsAtMostOneFinding)
{
    auto findings = lintFixture("src/member_bad.hh");
    ASSERT_GE(findings.size(), 2u);
    // Duplicate the first finding; a single baseline entry must absorb
    // only one copy.
    std::vector<Finding> doubled = findings;
    doubled.push_back(findings[0]);
    std::string text = formatBaseline(findings);
    std::vector<BaselineEntry> entries;
    std::string err;
    ASSERT_TRUE(parseBaseline(text, entries, err)) << err;
    auto fresh = filterBaseline(doubled, entries);
    EXPECT_EQ(fresh.size(), 1u);
}

TEST(LintBaseline, MalformedBaselineLinesAreRejected)
{
    std::vector<BaselineEntry> entries;
    std::string err;
    EXPECT_FALSE(parseBaseline("nondet only-two-fields\n", entries, err));
    EXPECT_FALSE(parseBaseline("nondet a.cc nothex\n", entries, err));
    EXPECT_TRUE(parseBaseline("# comment only\n\n", entries, err));
    EXPECT_TRUE(entries.empty());
}

// ----------------------------------------------------------- collection

TEST(LintCollection, FixtureTreeIsSkippedBySourceCollection)
{
    // Collecting with the fixtures dir in the relative path must yield
    // nothing: intentional violations never leak into a real scan.
    auto parent = std::string(BH_LINT_FIXTURES) + "/..";
    auto files = collectSources(parent, {"lint_fixtures"});
    EXPECT_TRUE(files.empty());
}

TEST(LintCollection, RuleCatalogDescribesEveryRule)
{
    for (const auto &id : ruleIds())
        EXPECT_FALSE(ruleDescription(id).empty()) << id;
    EXPECT_FALSE(ruleDescription("bad-suppression").empty());
    EXPECT_TRUE(ruleDescription("no-such-rule").empty());
}
