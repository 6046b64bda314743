// Fixture: a valid justified marker suppresses its lint (the bare `+`
// below would otherwise be a `tick-arith` finding) and is not itself
// reported.

pub fn next(t: ATime) -> u32 {
    // af-analyze: allow(tick-arith): t is below one wrap by construction
    t.ticks() + 1
}
