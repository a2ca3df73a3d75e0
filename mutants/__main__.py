import sys

from mutants.probe import main

raise SystemExit(main(sys.argv[1:]))
