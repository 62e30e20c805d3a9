#!/bin/sh
# Suite mode of the end-to-end benchmark; see run.py for the options.
exec python3 "$(dirname "$0")/run.py" "$@"
