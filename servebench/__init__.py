"""The serving benchmark of this repository; see README.md and run.py."""
