"""The magic square as a pseudo-telepathy witness, end to end.

Builds the six-equation system, brute-forces its classical value, verifies
the dimension-4 quantum strategy in game form (every inconsistent answer
pair has exactly-zero projector product), and then demonstrates the
compatibility ceiling: the very same family cannot commute across
intersecting contexts, because that would force a classical solution.
"""

from chromagap import csp, dkkms, qop

system, assignment = qop.mermin_peres()
print("system:")
print(system.format())
print("classical value:", system.sat_value(), "(strictly below 1)")

game = dkkms.game_csp(system, 1)
print("classical value of the repetition game:", csp.sat_value(game), "(again below 1)")

perfect = dkkms.verify_game_assignment(system, 1, assignment)
print("game form, no compatibility demands:", perfect.summary())

X, A = csp.to_structures(game)
level1 = qop.verify_assignment(X, A, assignment, 1)
print("projector verification, level-1 commutators:", level1.summary())
witness = level1.commutator_violations[0]
print("one witness:", witness)
print(
    "this is intrinsic: perfectness pins one observable per grid cell, and\n"
    "commutation across every row/column pair would diagonalise all nine at\n"
    "once, i.e. solve the unsatisfiable system classically."
)
