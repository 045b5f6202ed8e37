"""cxxscan: the C++ scanning core shared by tools/taint_check.py,
tools/conc_check.py and tools/bounds_check.py (DESIGN.md §9).

  lex             comment/literal stripper, tokenizer, bracket helpers
  ir              Arg/CallSite/Stmt/Param/Func/Program statement IR
  lite            stdlib-only frontend: declaration scanner, statement
                  parser, class-body member harvest
  clang_frontend  libclang frontend: TU loading, statement-IR walker
  flow            source-to-sink value flow (taint and bounds)
  cli             source collection, frontend fallback, baseline
                  suppression, fixture self-test harness
  self_test       tests for the above (ctest cxxscan.self_test)

A frontend bug is fixed here once; each analyzer keeps only its rules.
"""

from .ir import REPO, Program, subsys_of  # noqa: F401
from .lex import strip_comments  # noqa: F401
from .lite import harvest_fields, harvest_mutexes  # noqa: F401
