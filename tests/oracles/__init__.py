"""Recursive, tree-walking versions of the passes ``repro`` runs as
iterative folds over a term's DAG (:func:`repro.core.syntax.fold`), and
the character-by-character lexer.

They are the passes as they were before the folds: the label analysis
over its worklist fixpoint solver, the well-formedness check, the
projection and the pretty printer.  The differential suite
(:mod:`tests.property.test_prop_folds`) compares each fold with its
oracle exactly.  They recurse once per nesting level, so they only take
terms of moderate depth.

:mod:`tests.oracles.lexer` is the loop :func:`repro.lang.lexer.tokenize`
ran before it became one regex per line;
:mod:`tests.property.test_prop_lexer` requires the same tokens, or the
same error at the same position, from both.

:mod:`tests.oracles.planner` is the planner's unmemoised pass, with no
shared compliance cache and no pruning; the partition tests require
the same valid and invalid plans from it and from
:func:`repro.analysis.planner.find_valid_plans`.
"""
