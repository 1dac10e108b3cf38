"""Lockstep private-inference benchmark; see NOTES.md."""
