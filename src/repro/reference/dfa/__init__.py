"""STV algebra, Hopcroft refinement, the automaton registry, UTF-8."""
