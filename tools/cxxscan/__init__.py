"""cxxscan: the C++ scanning core shared by tools/taint_check.py,
tools/conc_check.py and tools/bounds_check.py (DESIGN.md §9).

  lex             comment/literal stripper, tokenizer, bracket helpers
  ir              Arg/CallSite/Stmt/Param/Func/Program statement IR and
                  Program.resolve, the call resolver all three use
  lite            stdlib-only frontend: declaration scanner, statement
                  parser (lock guards and block ends marked), class-body
                  member harvest
  clang_frontend  libclang frontend: TU loading, function-header and member
                  builders, statement-IR walker (same marks, and a
                  lambda-lifting hook)
  flow            source-to-sink value flow (taint and bounds)
  cli             source collection, frontend fallback, the `<int> <id>`
                  registry loader, findings and their rendering, baseline
                  suppression, fixture self-test harness
  self_test       tests for the above (ctest cxxscan.self_test)

A frontend or resolution bug is fixed here once; each analyzer keeps only
its rules.
"""

from .cli import load_registry  # noqa: F401
from .ir import REPO, Program, subsys_of  # noqa: F401
from .lex import strip_comments  # noqa: F401
from .lite import harvest_fields, harvest_mutexes  # noqa: F401
