"""weylalt's test suite; a package, so that its oracles module is imported as
tests.oracles and cannot clash with perfbench's module of the same name."""
