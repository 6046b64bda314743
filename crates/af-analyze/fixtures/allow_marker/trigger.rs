// Fixture: must trigger `allow-marker` twice — an unknown lint name and a
// marker with no justification.

// af-analyze: allow(no-such-lint): the lint name is misspelled
pub fn a() {}

// af-analyze: allow(tick-arith)
pub fn b() {}
